// The incremental fluid simulator. Event handling (stream order, dependency
// release, latency and event-sync timers, swap-remove of finished flows)
// follows reference_execute() step for step; only the rate update differs.
// Instead of re-filling every active flow on each flow start or finish, the
// execution keeps a per-channel list of active flows and re-runs progressive
// filling over just the connected components that contain a channel touched
// since the last fill. max_min_rates() fills each component on its own, so
// untouched components would come out bit-identical anyway; the result
// therefore matches the reference bit for bit.
#include "blink/sim/executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

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

// The ops of one or more programs (a grouped launch concatenates them,
// remapping streams and deps past the earlier members') as flat arrays.
struct OpTables {
  int num_streams = 0;
  std::vector<double> bytes;
  std::vector<double> latency;
  std::vector<int> stream;
  std::vector<int> num_deps;
  std::vector<int> stream_pos;        // op's position within its stream
  std::vector<int> route_begin;       // CSR: op -> route channels
  std::vector<int> route;
  std::vector<int> dependents_begin;  // CSR: op -> later ops depending on it
  std::vector<int> dependents;
  std::vector<int> stream_begin;      // CSR: stream -> ops in issue order
  std::vector<int> stream_ops;

  std::size_t size() const { return bytes.size(); }
  std::span<const int> route_of(int op) const {
    const auto i = static_cast<std::size_t>(op);
    return {route.data() + route_begin[i],
            static_cast<std::size_t>(route_begin[i + 1] - route_begin[i])};
  }
};

// Validates |programs| and flattens them into one schedule; throws like
// execute() on an invalid program or a route over a failed channel.
OpTables flatten(const Fabric& fabric,
                 std::span<const Program* const> programs) {
  OpTables t;
  std::size_t n = 0;
  std::size_t route_len = 0;
  std::size_t dep_len = 0;
  const auto& caps = fabric.capacities();
  for (const Program* p : programs) {
    std::string err;
    if (!p->validate(&err)) {
      throw std::logic_error("invalid program: " + err);
    }
  }
  for (const Program* p : programs) {
    n += p->ops().size();
    t.num_streams += p->num_streams();
    for (const Op& op : p->ops()) {
      route_len += op.route.size();
      dep_len += op.deps.size();
      // A failed channel (health 0) has no capacity: a flow over it would
      // never complete. Programs compiled before the failure are stale by
      // definition — refuse them with a typed error instead of deadlocking
      // the fluid model.
      for (const int c : op.route) {
        if (!(caps[static_cast<std::size_t>(c)] > 0.0)) {
          throw std::runtime_error(
              "stale program: op routes over failed channel " +
              fabric.channel_name(c));
        }
      }
    }
  }

  t.bytes.reserve(n);
  t.latency.reserve(n);
  t.stream.reserve(n);
  t.num_deps.reserve(n);
  t.route_begin.reserve(n + 1);
  t.route.reserve(route_len);
  t.route_begin.push_back(0);
  std::vector<int> dep_count(n + 1, 0);
  std::vector<int> stream_count(static_cast<std::size_t>(t.num_streams) + 1,
                                0);
  int op_base = 0;
  int stream_base = 0;
  for (const Program* p : programs) {
    for (const Op& op : p->ops()) {
      t.bytes.push_back(op.bytes);
      t.latency.push_back(op.latency);
      t.stream.push_back(op.stream + stream_base);
      t.num_deps.push_back(static_cast<int>(op.deps.size()));
      t.route.insert(t.route.end(), op.route.begin(), op.route.end());
      t.route_begin.push_back(static_cast<int>(t.route.size()));
      for (const int d : op.deps) ++dep_count[static_cast<std::size_t>(d + op_base) + 1];
      ++stream_count[static_cast<std::size_t>(op.stream + stream_base) + 1];
    }
    op_base += static_cast<int>(p->ops().size());
    stream_base += p->num_streams();
  }

  // Dependents and stream members in increasing op order, as the reference
  // builds its per-op vectors.
  for (std::size_t i = 1; i <= n; ++i) dep_count[i] += dep_count[i - 1];
  for (std::size_t s = 1; s < stream_count.size(); ++s) {
    stream_count[s] += stream_count[s - 1];
  }
  t.dependents_begin = dep_count;
  t.stream_begin = stream_count;
  t.dependents.resize(dep_len);
  t.stream_ops.resize(n);
  t.stream_pos.resize(n);
  op_base = 0;
  int id = 0;
  for (const Program* p : programs) {
    for (const Op& op : p->ops()) {
      for (const int d : op.deps) {
        t.dependents[static_cast<std::size_t>(
            dep_count[static_cast<std::size_t>(d + op_base)]++)] = id;
      }
      const auto s = static_cast<std::size_t>(t.stream[static_cast<std::size_t>(id)]);
      t.stream_pos[static_cast<std::size_t>(id)] =
          stream_count[s] - t.stream_begin[s];
      t.stream_ops[static_cast<std::size_t>(stream_count[s]++)] = id;
      ++id;
    }
    op_base += static_cast<int>(p->ops().size());
  }
  return t;
}

class Execution {
 public:
  Execution(const Fabric& fabric, const OpTables& ops)
      : fabric_(fabric), ops_(ops), caps_(fabric.capacities()) {
    const std::size_t n = ops.size();
    const auto channels = static_cast<std::size_t>(fabric.num_channels());
    remaining_deps_ = ops.num_deps;
    stream_completed_.assign(static_cast<std::size_t>(ops.num_streams), 0);
    channel_flows_.resize(channels);
    channel_mark_.assign(channels, 0);
    touched_mark_.assign(channels, 0);
    fill_.assign(channels, {});
    result_.op_start.assign(n, -1.0);
    result_.op_finish.assign(n, -1.0);
    result_.channel_bytes.assign(channels, 0.0);
  }

  RunResult run() {
    // Seed: front ops of each stream with no deps.
    for (int s = 0; s < ops_.num_streams; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (ops_.stream_begin[su] < ops_.stream_begin[su + 1]) {
        try_start(ops_.stream_ops[static_cast<std::size_t>(ops_.stream_begin[su])]);
      }
    }
    drain_start_queue();

    while (!flow_op_.empty() || !timers_.empty()) {
      recompute_rates();

      double next_flow_done = kInf;
      std::size_t first_done = flow_op_.size();
      for (std::size_t i = 0; i < flow_op_.size(); ++i) {
        const double t = now_ + flow_remaining_[i] / flow_rate_[i];
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
      if (first_done < flow_op_.size() && next_time == next_flow_done) {
        flow_remaining_[first_done] = 0.0;
      }

      // Complete flows that ran dry.
      for (std::size_t i = 0; i < flow_op_.size();) {
        if (flow_remaining_[i] <= kByteEps) {
          const int op = flow_op_[i];
          remove_flow(i);
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
  void try_start(int op_id) {
    const auto i = static_cast<std::size_t>(op_id);
    if (remaining_deps_[i] > 0) return;
    if (stream_completed_[static_cast<std::size_t>(ops_.stream[i])] !=
        ops_.stream_pos[i]) {
      return;  // an earlier op in this stream is still running
    }
    start_queue_.push_back(op_id);
  }

  void drain_start_queue() {
    while (!start_queue_.empty()) {
      const int op_id = start_queue_.back();
      start_queue_.pop_back();
      const auto i = static_cast<std::size_t>(op_id);
      result_.op_start[i] = now_;
      if (ops_.latency[i] > 0.0) {
        timers_.push(
            {now_ + ops_.latency[i], op_id, Timer::Kind::kBeginTransfer});
      } else {
        begin_transfer(op_id);
      }
    }
  }

  // Latency paid; move the op into its flow phase (or complete it).
  void begin_transfer(int op_id) {
    const auto route = ops_.route_of(op_id);
    const double bytes = ops_.bytes[static_cast<std::size_t>(op_id)];
    if (bytes <= 0.0 || route.empty()) {
      complete(op_id);
      return;
    }
    const int slot = static_cast<int>(flow_op_.size());
    flow_op_.push_back(op_id);
    flow_route_.push_back(route);
    flow_remaining_.push_back(bytes);
    flow_rate_.push_back(0.0);
    if (slot_in_comp_.size() < flow_op_.size()) slot_in_comp_.push_back(0);
    for (const int c : route) {
      channel_flows_[static_cast<std::size_t>(c)].push_back(slot);
      touch(c);
    }
  }

  // Swap-removes the flow in |slot|, like the reference's flows_ vector.
  // The flow moved into the hole changes its slot order relative to its
  // component, which changes the freeze order the reference would use, so
  // its channels count as touched too.
  void remove_flow(std::size_t slot) {
    const int hole = static_cast<int>(slot);
    for (const int c : flow_route_[slot]) {
      auto& list = channel_flows_[static_cast<std::size_t>(c)];
      *std::find(list.begin(), list.end(), hole) = list.back();
      list.pop_back();
      touch(c);
    }
    const std::size_t last = flow_op_.size() - 1;
    if (slot != last) {
      flow_op_[slot] = flow_op_[last];
      flow_route_[slot] = flow_route_[last];
      flow_remaining_[slot] = flow_remaining_[last];
      flow_rate_[slot] = flow_rate_[last];
      const int moved = static_cast<int>(last);
      for (const int c : flow_route_[slot]) {
        auto& list = channel_flows_[static_cast<std::size_t>(c)];
        *std::find(list.begin(), list.end(), moved) = hole;
        touch(c);
      }
    }
    flow_op_.pop_back();
    flow_route_.pop_back();
    flow_remaining_.pop_back();
    flow_rate_.pop_back();
  }

  void touch(int c) {
    const auto cu = static_cast<std::size_t>(c);
    if (touched_mark_[cu] != 0) return;
    touched_mark_[cu] = 1;
    touched_.push_back(c);
  }

  void complete(int op_id) {
    const auto i = static_cast<std::size_t>(op_id);
    assert(result_.op_finish[i] < 0.0);
    result_.op_finish[i] = now_;

    for (const int c : ops_.route_of(op_id)) {
      result_.channel_bytes[static_cast<std::size_t>(c)] += ops_.bytes[i];
    }

    const int stream = ops_.stream[i];
    auto& done = stream_completed_[static_cast<std::size_t>(stream)];
    assert(done == ops_.stream_pos[i]);
    ++done;
    const auto su = static_cast<std::size_t>(stream);
    const int next = ops_.stream_begin[su] + done;
    if (next < ops_.stream_begin[su + 1]) {
      try_start(ops_.stream_ops[static_cast<std::size_t>(next)]);
    }
    // Dependents in other streams learn of the completion after the event
    // synchronization latency.
    const double sync = fabric_.params().event_sync_latency;
    for (int k = ops_.dependents_begin[i]; k < ops_.dependents_begin[i + 1];
         ++k) {
      const int dep = ops_.dependents[static_cast<std::size_t>(k)];
      if (sync > 0.0 && ops_.stream[static_cast<std::size_t>(dep)] != stream) {
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

  // Re-fills each connected component (flows linked through shared
  // channels) that contains a touched channel; every other flow keeps its
  // rate, which a fresh fill would reproduce exactly.
  void recompute_rates() {
    if (touched_.empty()) return;
    if (++mark_ == 0) {  // wrapped: clear stale marks
      std::fill(channel_mark_.begin(), channel_mark_.end(), 0u);
      mark_ = 1;
    }
    for (const int c : touched_) {
      const auto cu = static_cast<std::size_t>(c);
      touched_mark_[cu] = 0;
      if (channel_mark_[cu] == mark_ || channel_flows_[cu].empty()) continue;
      collect_component(c);
      fill_component();
    }
    touched_.clear();
  }

  // Gathers the component reachable from channel |start| into comp_channels_
  // and comp_slots_ (the latter in slot order).
  void collect_component(int start) {
    comp_channels_.clear();
    comp_slots_.clear();
    channel_mark_[static_cast<std::size_t>(start)] = mark_;
    comp_channels_.push_back(start);
    for (std::size_t k = 0; k < comp_channels_.size(); ++k) {
      const auto cu = static_cast<std::size_t>(comp_channels_[k]);
      for (const int slot : channel_flows_[cu]) {
        const auto su = static_cast<std::size_t>(slot);
        if (slot_in_comp_[su] != 0) continue;
        slot_in_comp_[su] = 1;
        comp_slots_.push_back(slot);
        for (const int c : flow_route_[su]) {
          const auto c2 = static_cast<std::size_t>(c);
          if (channel_mark_[c2] == mark_) continue;
          channel_mark_[c2] = mark_;
          comp_channels_.push_back(c);
        }
      }
    }
    // Slot order: a sort when the component is a small share of the active
    // flows, else one pass over the slot flags.
    if (comp_slots_.size() * 8 < flow_op_.size()) {
      std::sort(comp_slots_.begin(), comp_slots_.end());
      for (const int slot : comp_slots_) {
        slot_in_comp_[static_cast<std::size_t>(slot)] = 0;
      }
    } else {
      // Branch-free compaction: the flags are unpredictable.
      comp_slots_.resize(flow_op_.size());
      std::size_t k = 0;
      for (std::size_t slot = 0; slot < flow_op_.size(); ++slot) {
        comp_slots_[k] = static_cast<int>(slot);
        k += static_cast<std::size_t>(slot_in_comp_[slot]);
        slot_in_comp_[slot] = 0;
      }
      comp_slots_.resize(k);
    }
  }

  // Progressive filling over one component, with max_min_rates' arithmetic
  // and freeze order (ascending slot), so rates match it bit for bit.
  void fill_component() {
    for (const int c : comp_channels_) {
      const auto cu = static_cast<std::size_t>(c);
      fill_[cu] = {caps_[cu], static_cast<double>(channel_flows_[cu].size())};
    }
    while (!comp_slots_.empty()) {
      double fill = kInf;
      std::size_t live = 0;
      for (const int c : comp_channels_) {
        const auto cu = static_cast<std::size_t>(c);
        if (fill_[cu].unset == 0.0) continue;  // saturated: drop from the scan
        fill = std::min(fill, fill_[cu].remaining / fill_[cu].unset);
        comp_channels_[live++] = c;
      }
      comp_channels_.resize(live);
      assert(fill < kInf && "unset flows must cross some channel");
      fill = std::max(fill, 0.0);

      std::size_t kept = 0;
      for (const int slot : comp_slots_) {
        const auto route = flow_route_[static_cast<std::size_t>(slot)];
        bool bottlenecked = false;
        for (const int c : route) {
          const auto cu = static_cast<std::size_t>(c);
          // Channels whose fair share equals the fill level saturate now.
          const ChannelFill& ch = fill_[cu];
          if (ch.remaining - fill * ch.unset <= 1e-9 * ch.remaining + 1e-6) {
            bottlenecked = true;
            break;
          }
        }
        if (!bottlenecked) {
          comp_slots_[kept++] = slot;
          continue;
        }
        flow_rate_[static_cast<std::size_t>(slot)] = fill;
        assert(fill > 0.0);
        for (const int c : route) {
          const auto cu = static_cast<std::size_t>(c);
          ChannelFill& ch = fill_[cu];
          ch.remaining -= fill;
          if (ch.remaining < 0.0) ch.remaining = 0.0;
          ch.unset -= 1.0;
        }
      }
      assert(kept < comp_slots_.size() &&
             "progressive filling must make progress");
      if (kept == comp_slots_.size()) break;  // defensive, as max_min_rates
      comp_slots_.resize(kept);
    }
  }

  void advance_to(double t) {
    assert(t >= now_);
    const double dt = t - now_;
    for (std::size_t i = 0; i < flow_remaining_.size(); ++i) {
      flow_remaining_[i] -= flow_rate_[i] * dt;
      if (flow_remaining_[i] < 0.0) flow_remaining_[i] = 0.0;
    }
    now_ = t;
  }

  const Fabric& fabric_;
  const OpTables& ops_;
  const std::vector<double>& caps_;

  double now_ = 0.0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<int> start_queue_;
  std::vector<int> remaining_deps_;
  std::vector<int> stream_completed_;

  // Active flows, struct-of-arrays in the reference's swap-remove order.
  std::vector<int> flow_op_;
  std::vector<std::span<const int>> flow_route_;
  std::vector<double> flow_remaining_;
  std::vector<double> flow_rate_;

  // Per-channel active flows (slots) and the channels touched since the
  // last fill.
  std::vector<std::vector<int>> channel_flows_;
  std::vector<int> touched_;
  std::vector<char> touched_mark_;

  // Fill scratch, reused across events. Marks equal to mark_ flag channels
  // already collected into a component during this fill.
  unsigned mark_ = 0;
  std::vector<unsigned> channel_mark_;
  std::vector<int> comp_channels_;
  std::vector<int> comp_slots_;
  std::vector<char> slot_in_comp_;  // per slot: in comp_slots_ right now
  // Per-channel fill state; the unfrozen-flow count is kept as a double
  // (exact for any count) since max_min_rates' arithmetic converts it anyway.
  struct ChannelFill {
    double remaining = 0.0;
    double unset = 0.0;
  };
  std::vector<ChannelFill> fill_;

  RunResult result_;
};

}  // namespace

RunResult execute(const Fabric& fabric, const Program& program) {
  const Program* const programs[] = {&program};
  const OpTables ops = flatten(fabric, programs);
  return Execution(fabric, ops).run();
}

GroupRunResult execute_group(const Fabric& fabric,
                             std::span<const Program* const> programs) {
  GroupRunResult group;
  const OpTables ops = flatten(fabric, programs);
  group.run = Execution(fabric, ops).run();
  group.ops.reserve(programs.size());
  group.makespan.reserve(programs.size());
  int begin = 0;
  for (const Program* p : programs) {
    const int end = begin + static_cast<int>(p->ops().size());
    group.ops.emplace_back(begin, end);
    double t = 0.0;
    for (int i = begin; i < end; ++i) {
      t = std::max(t, group.run.op_finish[static_cast<std::size_t>(i)]);
    }
    group.makespan.push_back(t);
    begin = end;
  }
  return group;
}

}  // namespace blink::sim
