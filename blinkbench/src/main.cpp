// blinkbench: the repository benchmark program.
//
//   blinkbench --workload <alloc_churn|cluster_step|serve_repair>
//              [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//
// Runs one workload for S seconds and prints a report; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// Untraced (--trace 0) the metrics are the end-to-end ones; traced
// (--trace 1) they are the per-layer ones, measured in traced rounds
// interleaved with untraced rounds of the same inputs, and every span is
// written to DIR/trace-<workload>-<seed>.jsonl at exit. Exits 2 on bad
// arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#endif

#include "trace.h"
#include "workloads.h"

namespace blinkbench {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(Tracer::now_ns() - start_ns) * 1e-9;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geo_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

#ifdef __linux__
namespace {

pid_t current_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

void pin(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof set, &set);
}

// The process's threads other than |except|, in id order.
std::vector<pid_t> process_threads(pid_t except) {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const auto tid =
        static_cast<pid_t>(std::strtol(entry.path().filename().c_str(),
                                       nullptr, 10));
    if (tid > 0 && tid != except) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

struct CpuShuffle::State {
  std::vector<int> cpus;
  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  std::thread mover;
};

CpuShuffle::CpuShuffle(int width, int period_us) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  auto state = std::make_unique<State>();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) state->cpus.push_back(c);
  }
  const std::size_t n = state->cpus.size();
  const auto w = static_cast<std::size_t>(std::max(width, 1));
  if (n <= w) return;
  State* s = state.get();
  s->mover = std::thread([s, n, w, period_us] {
    const pid_t self = current_tid();
    std::unique_lock<std::mutex> lock(s->mutex);
    for (std::size_t at = 0;; at = (at + 1) % n) {
      std::vector<int> window;
      for (std::size_t k = 0; k < w; ++k) {
        window.push_back(s->cpus[(at + k) % n]);
      }
      for (const pid_t tid : process_threads(self)) pin(tid, window);
      if (s->wake.wait_for(lock, std::chrono::microseconds(period_us),
                           [s] { return s->stop; })) {
        return;
      }
    }
  });
  state_ = std::move(state);
}

CpuShuffle::~CpuShuffle() {
  if (!state_) return;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->wake.notify_one();
  state_->mover.join();
  for (const pid_t tid : process_threads(0)) pin(tid, state_->cpus);
}
#else
struct CpuShuffle::State {};
CpuShuffle::CpuShuffle(int, int) {}
CpuShuffle::~CpuShuffle() = default;
#endif

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (bits >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
}

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// p95 where a run has at least 200 samples; otherwise the highest
// percentile that still leaves ten samples above it.
double tail_quantile(std::size_t n) {
  const double samples = static_cast<double>(std::max<std::size_t>(n, 1));
  return std::min(0.95, 1.0 - 10.0 / samples);
}

// The faster half of each op position's samples (ops repeat the same work
// pass after pass). Not a metric: a report line that helps a reader tell a
// run another tenant slowed down from a change that slowed the code.
std::vector<double> faster_half(const std::vector<Sample>& samples) {
  std::map<int, std::vector<double>> by_position;
  for (const Sample& s : samples) {
    if (!s.repair) by_position[s.position].push_back(s.seconds);
  }
  std::vector<double> kept;
  for (auto& [position, v] : by_position) {
    std::sort(v.begin(), v.end());
    kept.insert(kept.end(), v.begin(), v.begin() + (v.size() + 1) / 2);
  }
  return kept;
}

// Median over repair positions of each position's mean stall. The
// positions differ widely in cost (a Blink shard replans everything, a
// baseline only what the event touched), so a median over the pooled
// samples would sit on the seam between two of them.
double repair_median(const std::vector<Sample>& repairs) {
  std::map<int, std::vector<double>> by_position;
  for (const Sample& s : repairs) by_position[s.position].push_back(s.seconds);
  std::vector<double> means;
  for (const auto& [position, v] : by_position) means.push_back(mean(v));
  return median(means);
}

// Mean traced op time over the mean untraced time at the same positions.
double tracing_overhead(const Outcome& o) {
  std::map<int, std::pair<double, double>> untraced;  // position: sum, count
  for (const Sample& s : o.ops) {
    if (s.repair) continue;
    auto& [sum, n] = untraced[s.position];
    sum += s.seconds;
    n += 1;
  }
  double traced = 0.0, base = 0.0;
  for (std::size_t i = 0; i < o.traced_op_seconds.size(); ++i) {
    const auto it = untraced.find(o.traced_op_positions[i]);
    if (it == untraced.end()) continue;
    traced += o.traced_op_seconds[i];
    base += it->second.first / it->second.second;
  }
  return ratio(traced, base) - 1.0;
}

std::vector<Metric> end_to_end(const Outcome& o) {
  std::vector<double> latencies;
  for (const Sample& s : o.ops) {
    if (!s.repair) latencies.push_back(s.seconds);
  }
  const double tail = tail_quantile(latencies.size());
  const std::vector<double> kept = faster_half(o.ops);
  std::printf("ops: %zu in %.3f s; p%.1f taken as the tail; faster half per "
              "position: p50 %.6g ms, p%.1f %.6g ms\n",
              o.ops.size(), o.loop_seconds, tail * 100,
              percentile(kept, 0.5) * 1e3, tail_quantile(kept.size()) * 100,
              percentile(kept, tail_quantile(kept.size())) * 1e3);
  return {
      {"setup_s", o.setup_s, "s"},
      {"ops_per_s", ratio(static_cast<double>(o.ops.size()), o.loop_seconds),
       "1/s"},
      {"latency_ms.p50", percentile(latencies, 0.5) * 1e3, "ms"},
      {"latency_ms.p95", percentile(latencies, tail) * 1e3, "ms"},
      {"ok_frac",
       ratio(static_cast<double>(o.attempted - std::min(o.failed, o.attempted)),
             static_cast<double>(o.attempted)),
       "frac"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_algbw_gbps", o.sim_algbw_gbps, "GB/s"},
      {"sim_train_img_per_s", o.sim_train_img_per_s, "img/s"},
      {"repair_ms.p50", repair_median(o.repairs) * 1e3, "ms"},
  };
}

// Span names grouped into the layers whose share of op time is reported.
const std::vector<std::pair<const char*, std::vector<const char*>>>&
share_layers() {
  static const std::vector<std::pair<const char*, std::vector<const char*>>>
      layers{
          {"share.topology", {"topology.induce"}},
          {"share.engine_build", {"engine.build"}},
          {"share.treegen", {"treegen.build"}},
          {"share.codegen", {"codegen.compile"}},
          {"share.multiserver", {"multiserver.compile"}},
          {"share.sim", {"sim.execute", "sim.execute_group"}},
          {"share.engine_lookup", {"engine.lookup"}},
          {"share.serve", {"serve.execute", "serve.compile", "serve.repair"}},
          {"share.dnn", {"dnn.iteration"}},
      };
  return layers;
}

std::vector<Metric> per_layer(const Outcome& o,
                              std::vector<Metric>* report_only) {
  const Tracer& tr = tracer();
  const auto totals = tr.totals();
  auto busy = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.busy_ms;
  };
  auto self_mean = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end()
               ? 0.0
               : ratio(it->second.self_ms,
                       static_cast<double>(it->second.count));
  };

  // Self time inside op spans, per span name; the op spans' own self time
  // is the part no layer span covers.
  const auto in_ops = tr.totals(/*inside_op=*/true);
  auto op_self_ms = [&](const char* name) {
    const auto it = in_ops.find(name);
    return it == in_ops.end() ? 0.0 : it->second.self_ms;
  };
  const double op_busy_ms =
      in_ops.count("op") != 0 ? in_ops.at("op").busy_ms : 0.0;

  const LayerCounters& c = o.counters;
  const double sim_ms = busy("sim.execute") + busy("sim.execute_group");
  std::vector<Metric> m{
      {"treegen.ms", self_mean("treegen.build"), "ms"},
      {"treegen.builds",
       ratio(c.treegen_builds,
             static_cast<double>(totals.count("treegen.build") != 0
                                     ? totals.at("treegen.build").count
                                     : 0)),
       "count"},
      {"packing.optimal_rate_ms", self_mean("packing.optimal_rate"), "ms"},
      {"packing.mwu_ms", self_mean("packing.mwu"), "ms"},
      {"packing.mwu_iterations", ratio(c.mwu_iterations, c.replays), "count"},
      {"packing.minimize_ms", self_mean("packing.minimize"), "ms"},
      {"packing.relaxed_frac", ratio(c.relaxed, c.replays), "frac"},
      {"packing.rate_frac", ratio(c.rate_frac_sum, c.replays), "frac"},
      {"multiserver.tree_builds", ratio(c.cluster_tree_builds, c.cluster_jobs),
       "count"},
      {"multiserver.nic_egress_mb",
       ratio(c.nic_egress_bytes, c.cluster_jobs) / 1e6, "MB"},
      {"sim.execute_ms", self_mean("sim.execute"), "ms"},
      {"sim.ops", ratio(c.execute_ops, c.executes), "count"},
      {"sim.group_ops", ratio(c.group_ops, c.group_launches), "count"},
      {"sim.us_per_op",
       ratio(sim_ms * 1e3, c.execute_ops + c.group_ops), "us"},
      {"engine.lookup_ms", self_mean("engine.lookup"), "ms"},
      {"plan_cache.hit_frac",
       ratio(c.cache_hits, c.cache_hits + c.cache_misses), "frac"},
      {"plan_cache.misses_per_op",
       ratio(c.cache_misses, c.cache_ops), "count"},
      {"engine.repair_ms", self_mean("engine.repair"), "ms"},
      {"repair.dropped", ratio(c.dropped, c.repairs), "count"},
      {"repair.retained", ratio(c.retained, c.repairs), "count"},
      {"repair.recompiled", ratio(c.recompiled, c.repairs), "count"},
      {"repair.retained_frac", ratio(c.retained, c.dropped + c.retained),
       "frac"},
      {"plan_io.plans", ratio(c.plans_imported, c.imports), "count"},
      {"plan_io.store_kb", c.store_bytes / 1024.0, "KiB"},
      {"trace.coverage",
       op_busy_ms > 0.0 ? 1.0 - op_self_ms("op") / op_busy_ms : 0.0, "frac"},
      {"trace.overhead_frac",
       tracing_overhead(o), "frac"},
  };
  for (const auto& [name, members] : share_layers()) {
    double ms = 0.0;
    for (const char* member : members) ms += op_self_ms(member);
    m.push_back({name, ratio(ms, op_busy_ms), "frac"});
  }

  // Layer times only some workloads exercise: reported, not in the JSON.
  using Pair = std::pair<const char*, const char*>;
  for (const auto& [name, metric] : std::vector<Pair>{
           {"codegen.compile", "codegen.compile_ms"},
           {"multiserver.compile", "multiserver.compile_ms"},
           {"sim.execute_group", "sim.execute_group_ms"},
           {"plan_io.import", "plan_io.import_ms"},
           {"topology.induce", "topology.ms"},
           {"engine.build", "engine.build_ms"},
           {"dnn.iteration", "dnn.ms"}}) {
    report_only->push_back({metric, self_mean(name), "ms"});
  }
  for (const auto& [name, value] : o.layer) {
    report_only->push_back({name, value, ""});
  }
  return m;
}

void print_json(const Outcome& o, const std::vector<Metric>& metrics) {
  const bool correct = o.failed == 0 && o.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "blinkbench: %s\nusage: blinkbench --workload "
               "alloc_churn|cluster_step|serve_repair [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace blinkbench

int main(int argc, char** argv) {
  using namespace blinkbench;
  Config config;
  config.seed = 1;  // default seed; 7919 is held out for gain claims
  config.work_dir = ".bench_build/blinkbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) {
        return usage("--seconds must be positive");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  Outcome (*run)(const Config&) = nullptr;
  if (config.workload == "alloc_churn") run = run_alloc_churn;
  if (config.workload == "cluster_step") run = run_cluster_step;
  if (config.workload == "serve_repair") run = run_serve_repair;
  if (run == nullptr) return usage("unknown or missing --workload");
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return usage(("cannot create " + config.work_dir).c_str());
  config.work_dir += "/" + config.workload;
  std::filesystem::create_directories(config.work_dir, ec);

  const Outcome out = run(config);

  std::printf("workload %s seed %llu%s: %llu ops attempted, %llu failed\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? " (traced)" : "",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (!out.first_failure.empty()) {
    std::printf("first failure: %s\n", out.first_failure.c_str());
  }
  std::printf("sim_digest %016llx\n",
              static_cast<unsigned long long>(out.sim_digest));
  std::printf("samples: %zu untraced ops, %zu traced ops, %zu repairs\n",
              out.ops.size(), out.traced_op_seconds.size(),
              out.repairs.size());

  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = end_to_end(out);
  } else {
    std::vector<Metric> extra;
    metrics = per_layer(out, &extra);
    std::printf("%-22s %12s %12s %10s\n", "span", "busy_ms", "self_ms",
                "count");
    for (const auto& [name, t] : tracer().totals()) {
      std::printf("%-22s %12.3f %12.3f %10lld\n", name.c_str(), t.busy_ms,
                  t.self_ms, static_cast<long long>(t.count));
    }
    for (const Metric& m : extra) {
      std::printf("layer %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    if (!tracer().write(path)) {
      std::fprintf(stderr, "blinkbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer().spans().size(),
                path.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_json(out, metrics);
  return 0;
}
