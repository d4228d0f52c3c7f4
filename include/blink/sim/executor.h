// Discrete-event execution of a Program on a Fabric under fluid max-min
// bandwidth sharing.
//
// Rates are max-min fair per connected component of active flows (flows
// linked through shared channels; see max_min_rates). The executor keeps a
// per-channel list of active flows and, on each flow start or finish,
// re-runs progressive filling only over the components containing a channel
// the event touched: an event costs O(flows) for the clock advance plus
// O(steps * (channels + flows * route length)) over the touched components
// alone, instead of a fill over every active flow. Results are bit-identical
// to reference_execute(), which re-fills everything on every event.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "blink/sim/fabric.h"
#include "blink/sim/program.h"

namespace blink::sim {

struct RunResult {
  double makespan = 0.0;             // seconds until the last op finished
  std::vector<double> op_start;      // time each op was issued
  std::vector<double> op_finish;     // completion time per op
  std::vector<double> channel_bytes; // bytes carried per channel

  // Collective throughput as the paper reports it: payload bytes / time.
  double throughput(double payload_bytes) const {
    return makespan > 0.0 ? payload_bytes / makespan : 0.0;
  }
};

// Runs |program| to completion and returns timing. Throws std::logic_error
// on deadlock (a dependency cycle through streams), which indicates a
// schedule-generation bug.
RunResult execute(const Fabric& fabric, const Program& program);

// A grouped launch: all member programs start at t=0 on independent streams
// and contend for the fabric, like collectives batched between
// ncclGroupStart/ncclGroupEnd.
struct GroupRunResult {
  RunResult run;                          // timing over the merged schedule
  std::vector<double> makespan;           // completion time per member
  std::vector<std::pair<int, int>> ops;   // member's [begin, end) op range
};

// Merges |programs| into one schedule and runs it. Empty members get a zero
// makespan and an empty range.
GroupRunResult execute_group(const Fabric& fabric,
                             std::span<const Program* const> programs);

// The reference executor: the original event loop, re-running
// max_min_rates over every active flow on each flow start or finish. Same
// contract and bit-identical results as execute()/execute_group(), at a much
// higher cost; kept as the test oracle for the incremental executor
// (executor_test's differential suite, the fuzzer's sim-oracle invariant).
RunResult reference_execute(const Fabric& fabric, const Program& program);
GroupRunResult reference_execute_group(const Fabric& fabric,
                                       std::span<const Program* const> programs);

}  // namespace blink::sim
