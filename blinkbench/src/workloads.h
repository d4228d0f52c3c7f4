// The benchmark's three workloads and what each one reports.
//
// Every workload is a closed loop driven from one client thread: the next op
// is issued only after the previous one returned. A run is set-up (timed as
// setup_s), then the timed loop for the requested seconds, then a short
// post-loop phase that derives the deterministic simulated metrics. In
// alloc_churn and cluster_step a repair probe runs between passes of the
// loop with the loop clock stopped; serve_repair times the kRepair requests
// of its traffic. Each op's outputs are checked; an op that throws or fails
// a check counts as failed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"

namespace blinkbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Working directory inside the checkout (plan stores live here).
  std::string work_dir;
};

// One timed op. Every workload repeats a fixed op sequence pass after pass;
// |position| is the op's index in that sequence, so samples sharing a
// position repeat the same work.
struct Sample {
  double seconds = 0.0;
  int position = 0;
  bool repair = false;  // a repair stall, not a traffic op
};

struct Outcome {
  // Median of the set-up repetitions, seconds.
  double setup_s = 0.0;
  // The ops of the timed loop that ran untraced.
  std::vector<Sample> ops;
  // Every timed repair stall (serve_repair's kRepair requests, or the
  // repair probe of the other workloads).
  std::vector<Sample> repairs;
  // Wall time of the ops that ran traced (traced runs only); compared with
  // the untraced ops of the same positions for the tracing overhead.
  std::vector<double> traced_op_seconds;
  std::vector<int> traced_op_positions;
  // Wall time of the untraced part of the timed loop, repair probes
  // excluded, seconds.
  double loop_seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Deterministic simulated metrics (bit-identical for a seed).
  double sim_algbw_gbps = 0.0;
  double sim_train_img_per_s = 0.0;
  // FNV-1a digest over the bit patterns of the simulated makespans.
  std::uint64_t sim_digest = 0;
  // Per-layer accumulators of the traced rounds.
  LayerCounters counters;
  // Workload-specific per-layer values measured from outside (times that
  // are not span totals), keyed by metric name; reported, not gated.
  std::map<std::string, double> layer;
  // First failure message, for the report.
  std::string first_failure;

  void add_op(bool traced, double seconds, int position) {
    if (traced) {
      traced_op_seconds.push_back(seconds);
      traced_op_positions.push_back(position);
    } else {
      ops.push_back({seconds, position, false});
    }
  }

  void fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
};

Outcome run_alloc_churn(const Config& config);
Outcome run_cluster_step(const Config& config);
Outcome run_serve_repair(const Config& config);

// --- helpers shared by the workloads -----------------------------------------

double seconds_since(std::int64_t start_ns);
// Nearest-rank percentile (q in [0, 1]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
// Geometric mean of positive values; 0 when empty.
double geo_mean(const std::vector<double>& values);

// Degrades |channel| of |engine|'s fabric to half capacity and restores it,
// |cycles| times, timing each repair_plans() stall as a repair sample at
// position |position| (degrade) or |position| + 1 (restore). After every
// restore, |plans|' shapes must compile and simulate bit-identically to
// |healthy|. Repairs are counted in out.counters while the tracer is on.
void repair_probe(blink::CollectiveEngine& engine, int channel,
                  const std::vector<std::shared_ptr<const blink::CollectivePlan>>&
                      plans,
                  const std::vector<double>& healthy, int cycles, int position,
                  Outcome& out);

// Confines every thread of the process (those started later too) to a
// window of |width| CPUs that moves on by one CPU, round robin over the
// CPUs the process may use, every |period_us|; on destruction the threads
// may run anywhere again. |width| is the number of threads the workload
// keeps busy at once, so they never share a CPU.
//
// Why: on a shared host each CPU runs at a fast or a slow speed (about
// 1.45x apart) and switches between them every few seconds with the other
// tenants' load. A thread the scheduler leaves on one CPU takes that CPU's
// luck: its op times split into two modes and a run's median lands on
// either, whichever the run happened to get more of. A thread that visits
// every CPU within an op runs at the host's average speed. The moves cost
// some cache refills, which the measured times include. A no-op where CPU
// affinity is unavailable or the process may use no more than |width|
// CPUs.
class CpuShuffle {
 public:
  // Often enough that a millisecond-scale op visits several CPUs.
  static constexpr int kPeriodUs = 1000;
  explicit CpuShuffle(int width, int period_us = kPeriodUs);
  ~CpuShuffle();
  CpuShuffle(const CpuShuffle&) = delete;
  CpuShuffle& operator=(const CpuShuffle&) = delete;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// Running FNV-1a digest over doubles' bit patterns.
class Digest {
 public:
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace blinkbench
