// The reference executor: the original discrete-event loop that re-runs
// max_min_rates over every active flow on each flow start or finish. It is
// kept unchanged as the bit-exact oracle for the incremental Execution in
// executor.cpp (executor_test's differential suite and the fuzzer's
// sim-oracle invariant compare the two).
#include "blink/sim/executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

#include "blink/sim/engine.h"

namespace blink::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kByteEps = 1e-6;

struct Timer {
  double time;
  int op;
  // Timers either move an op from its latency phase into its flow phase, or
  // release a delayed dependency edge (CUDA event sync) toward |op|.
  enum class Kind { kBeginTransfer, kReleaseDep } kind = Kind::kBeginTransfer;
  bool operator>(const Timer& other) const { return time > other.time; }
};

class Execution {
 public:
  Execution(const Fabric& fabric, const Program& program)
      : fabric_(fabric), program_(program) {
    const auto n = static_cast<std::size_t>(program.ops().size());
    remaining_deps_.resize(n, 0);
    dependents_.resize(n);
    stream_pos_.resize(n, 0);
    stream_ops_.resize(static_cast<std::size_t>(program.num_streams()));
    stream_completed_.resize(static_cast<std::size_t>(program.num_streams()),
                             0);
    result_.op_start.assign(n, -1.0);
    result_.op_finish.assign(n, -1.0);
    result_.channel_bytes.assign(
        static_cast<std::size_t>(fabric.num_channels()), 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      const auto& op = program.op(static_cast<int>(i));
      remaining_deps_[i] = static_cast<int>(op.deps.size());
      for (const int d : op.deps) {
        dependents_[static_cast<std::size_t>(d)].push_back(
            static_cast<int>(i));
      }
      auto& sops = stream_ops_[static_cast<std::size_t>(op.stream)];
      stream_pos_[i] = static_cast<int>(sops.size());
      sops.push_back(static_cast<int>(i));
    }
  }

  RunResult run() {
    // Seed: front ops of each stream with no deps.
    for (const auto& sops : stream_ops_) {
      if (!sops.empty()) try_start(sops.front());
    }
    drain_start_queue();

    while (!flows_.empty() || !timers_.empty()) {
      recompute_rates();

      double next_flow_done = kInf;
      std::size_t first_done = flows_.size();
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        const double t = now_ + flows_[i].remaining / flows_[i].rate;
        if (t < next_flow_done) {
          next_flow_done = t;
          first_done = i;
        }
      }
      double next_time = next_flow_done;
      if (!timers_.empty()) next_time = std::min(next_time, timers_.top().time);
      assert(next_time < kInf);
      advance_to(next_time);
      // Guarantee progress even when remaining/rate underflows the clock's
      // resolution: the flow that determined next_time is done by definition.
      if (first_done < flows_.size() && next_time == next_flow_done) {
        flows_[first_done].remaining = 0.0;
      }

      // Complete flows that ran dry.
      for (std::size_t i = 0; i < flows_.size();) {
        if (flows_[i].remaining <= kByteEps) {
          const int op = flows_[i].op;
          flows_[i] = flows_.back();
          flows_.pop_back();
          complete(op);
        } else {
          ++i;
        }
      }
      // Fire timers.
      while (!timers_.empty() && timers_.top().time <= now_ + 1e-15) {
        const Timer timer = timers_.top();
        timers_.pop();
        if (timer.kind == Timer::Kind::kBeginTransfer) {
          begin_transfer(timer.op);
        } else {
          release_dep(timer.op);
        }
      }
      drain_start_queue();
    }

    for (const double t : result_.op_finish) {
      if (t < 0.0) {
        throw std::logic_error(
            "simulator deadlock: unsatisfied op dependencies");
      }
    }
    result_.makespan = now_;
    return std::move(result_);
  }

 private:
  struct Flow {
    int op;
    double remaining;
    double rate = 0.0;
  };

  void try_start(int op_id) {
    const auto& op = program_.op(op_id);
    const auto i = static_cast<std::size_t>(op_id);
    if (remaining_deps_[i] > 0) return;
    if (stream_completed_[static_cast<std::size_t>(op.stream)] !=
        stream_pos_[i]) {
      return;  // an earlier op in this stream is still running
    }
    start_queue_.push_back(op_id);
  }

  void drain_start_queue() {
    while (!start_queue_.empty()) {
      const int op_id = start_queue_.back();
      start_queue_.pop_back();
      result_.op_start[static_cast<std::size_t>(op_id)] = now_;
      const auto& op = program_.op(op_id);
      if (op.latency > 0.0) {
        timers_.push({now_ + op.latency, op_id, Timer::Kind::kBeginTransfer});
      } else {
        begin_transfer(op_id);
      }
    }
  }

  // Latency paid; move the op into its flow phase (or complete it).
  void begin_transfer(int op_id) {
    const auto& op = program_.op(op_id);
    if (op.bytes <= 0.0 || op.route.empty()) {
      complete(op_id);
      return;
    }
    flows_.push_back({op_id, op.bytes});
    rates_dirty_ = true;
  }

  void complete(int op_id) {
    const auto i = static_cast<std::size_t>(op_id);
    assert(result_.op_finish[i] < 0.0);
    result_.op_finish[i] = now_;
    rates_dirty_ = true;

    const auto& op = program_.op(op_id);
    for (const int c : op.route) {
      result_.channel_bytes[static_cast<std::size_t>(c)] += op.bytes;
    }

    auto& done = stream_completed_[static_cast<std::size_t>(op.stream)];
    assert(done == stream_pos_[i]);
    ++done;
    const auto& sops = stream_ops_[static_cast<std::size_t>(op.stream)];
    if (static_cast<std::size_t>(done) < sops.size()) {
      try_start(sops[static_cast<std::size_t>(done)]);
    }
    // Dependents in other streams learn of the completion after the event
    // synchronization latency.
    const double sync = fabric_.params().event_sync_latency;
    for (const int dep : dependents_[i]) {
      if (sync > 0.0 &&
          program_.op(dep).stream != op.stream) {
        timers_.push({now_ + sync, dep, Timer::Kind::kReleaseDep});
      } else {
        release_dep(dep);
      }
    }
  }

  void release_dep(int op_id) {
    if (--remaining_deps_[static_cast<std::size_t>(op_id)] == 0) {
      try_start(op_id);
    }
  }

  void recompute_rates() {
    if (!rates_dirty_) return;
    rates_dirty_ = false;
    std::vector<FlowSpec> specs;
    specs.reserve(flows_.size());
    for (const auto& f : flows_) {
      specs.push_back({program_.op(f.op).route});
    }
    const auto rates = max_min_rates(fabric_.capacities(), specs);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      flows_[i].rate = rates[i];
      assert(flows_[i].rate > 0.0);
    }
  }

  void advance_to(double t) {
    assert(t >= now_);
    const double dt = t - now_;
    for (auto& f : flows_) {
      f.remaining -= f.rate * dt;
      if (f.remaining < 0.0) f.remaining = 0.0;
    }
    now_ = t;
  }

  const Fabric& fabric_;
  const Program& program_;

  double now_ = 0.0;
  bool rates_dirty_ = true;
  std::vector<Flow> flows_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<int> start_queue_;

  std::vector<int> remaining_deps_;
  std::vector<std::vector<int>> dependents_;
  std::vector<int> stream_pos_;
  std::vector<std::vector<int>> stream_ops_;
  std::vector<int> stream_completed_;

  RunResult result_;
};

}  // namespace

RunResult reference_execute(const Fabric& fabric, const Program& program) {
  std::string err;
  if (!program.validate(&err)) {
    throw std::logic_error("invalid program: " + err);
  }
  // A failed channel (health 0) has no capacity: a flow over it would never
  // complete. Programs compiled before the failure are stale by definition —
  // refuse them with a typed error instead of deadlocking the fluid model.
  const auto& caps = fabric.capacities();
  for (const auto& op : program.ops()) {
    for (const int c : op.route) {
      if (!(caps[static_cast<std::size_t>(c)] > 0.0)) {
        throw std::runtime_error("stale program: op routes over failed channel " +
                                 fabric.channel_name(c));
      }
    }
  }
  return Execution(fabric, program).run();
}

GroupRunResult reference_execute_group(
    const Fabric& fabric, std::span<const Program* const> programs) {
  GroupRunResult group;
  Program merged;
  group.ops.reserve(programs.size());
  for (const Program* p : programs) {
    const int begin = merged.append(*p);
    group.ops.emplace_back(begin, static_cast<int>(merged.ops().size()));
  }
  group.run = reference_execute(fabric, merged);
  group.makespan.reserve(programs.size());
  for (const auto& [begin, end] : group.ops) {
    double t = 0.0;
    for (int i = begin; i < end; ++i) {
      t = std::max(t, group.run.op_finish[static_cast<std::size_t>(i)]);
    }
    group.makespan.push_back(t);
  }
  return group;
}

}  // namespace blink::sim
