// blink_fuzz: the randomized-fabric invariant fuzzer CLI.
//
//   blink_fuzz --iters 2000 --seed 20260808     # the CI smoke corpus
//   blink_fuzz --iters 200000 --seed $RANDOM    # nightly-style long run
//   blink_fuzz --case 0xDEADBEEF                # replay one failing case
//   blink_fuzz --iters 64 --inject nic-bound    # prove the harness detects
//
// Every failure prints one line with the seed, fabric parameters, invariant
// and a repro command that replays the case deterministically on any
// machine. Exits nonzero when any invariant is violated.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "blink/fuzz/fuzz.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--iters N] [--seed S] [--case HEX] [--inject NAME]\n"
               "          [--workers N] [--max-servers N] [--max-gpus N]\n"
               "          [--min-bytes B] [--max-bytes B]\n"
               "  --iters N        cases to run (default 2000)\n"
               "  --seed S         run seed; case i replays as case_seed(S, i)\n"
               "  --case HEX       replay exactly one case seed (as printed\n"
               "                   in a failure's repro line) and exit\n"
               "  --inject NAME    deliberately break one invariant check to\n"
               "                   exercise failure capture; one of:",
               argv0);
  for (const auto& name : blink::fuzz::injectable_invariants()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr,
               "\n"
               "  --workers N      concurrent cases (0 = BLINK_PLANNER_THREADS,\n"
               "                   else the core count)\n"
               "  --max-servers N  fabric size ceiling (default %d)\n"
               "  --max-gpus N     per-server GPU ceiling (default %d)\n"
               "  --min-bytes B    payload floor in bytes (default %.0f)\n"
               "  --max-bytes B    payload ceiling in bytes (default %.0f)\n",
               blink::topo::zoo::RandomFabricParams{}.max_servers,
               blink::topo::zoo::RandomFabricParams{}.max_gpus,
               blink::fuzz::FuzzOptions{}.min_bytes,
               blink::fuzz::FuzzOptions{}.max_bytes);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 0);  // base 0: accepts 0x... and decimal
  return end != s && *end == '\0';
}

void print_failures(const blink::fuzz::FuzzReport& report) {
  for (const auto& f : report.failures) {
    std::printf("FAIL invariant=%s case=0x%" PRIx64 " repro='%s' fabric='%s' "
                "detail='%s'\n",
                f.invariant.c_str(), f.case_seed, f.repro.c_str(),
                f.fabric.c_str(), f.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 20260808;
  std::uint64_t iters = 2000;
  std::uint64_t single_case = 0;
  bool replay_single = false;
  blink::fuzz::FuzzOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need = [&](const char* flag) {
      if (value == nullptr) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        std::exit(2);
      }
      ++i;
      return value;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--iters") {
      if (!parse_u64(need("--iters"), &iters)) break;
    } else if (arg == "--seed") {
      if (!parse_u64(need("--seed"), &seed)) break;
    } else if (arg == "--case") {
      if (!parse_u64(need("--case"), &single_case)) break;
      replay_single = true;
    } else if (arg == "--inject") {
      options.inject = need("--inject");
      bool known = false;
      for (const auto& name : blink::fuzz::injectable_invariants()) {
        known = known || name == options.inject;
      }
      if (!known) {
        std::fprintf(stderr, "%s: unknown invariant '%s' for --inject\n",
                     argv[0], options.inject.c_str());
        return 2;
      }
    } else if (arg == "--workers") {
      options.workers = std::atoi(need("--workers"));
    } else if (arg == "--max-servers") {
      options.fabric.max_servers = std::atoi(need("--max-servers"));
    } else if (arg == "--max-gpus") {
      options.fabric.max_gpus = std::atoi(need("--max-gpus"));
    } else if (arg == "--min-bytes") {
      options.min_bytes = std::atof(need("--min-bytes"));
    } else if (arg == "--max-bytes") {
      options.max_bytes = std::atof(need("--max-bytes"));
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (replay_single) {
    blink::fuzz::FuzzReport report;
    blink::fuzz::run_case(single_case, options, &report);
    print_failures(report);
    std::printf("case 0x%" PRIx64 ": %zu plans, %zu executions, %zu "
                "failure(s)\n",
                single_case, report.plans, report.executions,
                report.failures.size());
    return report.ok() ? 0 : 1;
  }

  const blink::fuzz::FuzzReport report =
      blink::fuzz::run(seed, static_cast<std::size_t>(iters), options);
  print_failures(report);
  std::printf("fuzz seed=%" PRIu64 " cases=%zu (single-server=%zu, "
              "multi-server=%zu) plans=%zu executions=%zu failures=%zu\n",
              seed, report.cases, report.single_server_cases,
              report.multi_server_cases, report.plans, report.executions,
              report.failures.size());
  if (!report.ok()) {
    std::printf("replay any line above with its repro command, e.g. "
                "%s --case 0x%" PRIx64 "\n",
                argv[0], report.failures.front().case_seed);
  }
  return report.ok() ? 0 : 1;
}
