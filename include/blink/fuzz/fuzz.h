// The randomized-fabric invariant fuzzer (ROADMAP item 5): compiles all six
// collective kinds across backends on seeded random fabrics from the
// topology zoo and checks the cross-cutting guarantees the hand-built test
// shapes cannot cover — per-tree link-capacity discipline, channel
// byte-accounting against makespan, cluster NIC volume lower bounds,
// plan-record round-trip bit-identity, compile determinism and plan-store
// export/import warm hits, pipelined-never-slower, repair-equals-recompile
// after random health events, never-slower-than-flat single-tree
// references, the incremental simulator agreeing bit for bit with the
// reference executor (sim-oracle: every checked plan plus one grouped launch
// of all of a case's plans), and mwu_pack agreeing bit for bit with the
// reference MWU loop over the reference arborescence solver (treegen-oracle:
// one tree set's planning graph per case).
//
// Every case is reproducible from one 64-bit case seed: a failure's repro
// line ("blink_fuzz --case 0x...") replays the fabric, payload, roots and
// rotation checks exactly. tools/blink_fuzz.cpp is the CLI harness;
// tests/fuzz_invariants_test.cpp runs a fixed-seed corpus as the CI smoke
// gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blink/topology/zoo.h"

namespace blink::fuzz {

struct FuzzOptions {
  /// Fabric generation ranges (server count, GPU count, density, bandwidth
  /// spread); see topo::zoo::RandomFabricParams.
  topo::zoo::RandomFabricParams fabric;
  /// Per-GPU payload range the cases draw from (bytes).
  double min_bytes = 1.0e6;
  double max_bytes = 48.0e6;
  /// Deliberately breaks the named invariant's check (one of
  /// injectable_invariants()) so the harness plumbing — failure capture,
  /// repro line, seeded replay — is itself testable end to end. The engine
  /// under test is untouched: replaying a case without the injection must
  /// come back clean. Empty disables injection.
  std::string inject;
  /// Concurrent cases across the shared thread pool; 0 (or less) = the
  /// pool's default width, common::ThreadPool::default_threads(); 1 =
  /// serial. Pure speed knob: per-case results depend only on the case seed.
  int workers = 0;
};

/// One invariant violation, reproducible from case_seed alone.
struct FuzzFailure {
  std::uint64_t case_seed = 0;
  std::string invariant;  ///< which check fired (see invariant list)
  std::string detail;     ///< kind/backend/values of the violation
  std::string fabric;     ///< RandomFabric::describe() of the failing fabric
  std::string repro;      ///< "blink_fuzz --case 0x<seed>" replay line
};

/// Counters and failures of a fuzz run.
struct FuzzReport {
  std::size_t cases = 0;
  std::size_t single_server_cases = 0;
  std::size_t multi_server_cases = 0;
  std::size_t plans = 0;       ///< plans compiled and checked
  std::size_t executions = 0;  ///< simulated runs
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// The per-case seed of iteration |index| under run seed |seed| (a
/// splitmix64 finalizer, so neighbouring indices decorrelate fully).
/// run_case(case_seed(s, i), ...) replays iteration i of run(s, ...).
std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index);

/// Runs exactly one fuzz case, appending its counters and any failures to
/// |report|. Not internally synchronized; run() gives each worker its own
/// report and merges.
void run_case(std::uint64_t case_seed, const FuzzOptions& options,
              FuzzReport* report);

/// Runs |iters| cases seeded from |seed|, fanning out across the shared
/// thread pool per options.workers. The merged report is independent of the
/// worker count; failures are sorted by case seed.
FuzzReport run(std::uint64_t seed, std::size_t iters,
               const FuzzOptions& options = {});

/// Invariant names FuzzOptions::inject accepts. Injection perturbs only the
/// *check* (a halved capacity bound, an inflated NIC bound, a corrupted
/// serialization byte, ...), so an injected failure proves the harness
/// detects and reproduces violations without planting a bug in the engine.
const std::vector<std::string>& injectable_invariants();

}  // namespace blink::fuzz
