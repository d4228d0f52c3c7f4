#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "blink/common/rng.h"
#include "blink/sim/executor.h"
#include "blink/topology/builders.h"
#include "blink/topology/zoo.h"

namespace blink::sim {
namespace {

Fabric chain_fabric(int n) {
  FabricParams params;
  params.copy_launch_latency = 0.0;
  params.reduce_launch_latency = 0.0;
  params.event_sync_latency = 0.0;  // exact-timing tests
  return Fabric(topo::make_chain(n, /*lane_bw=*/10.0e9), params);
}

TEST(Executor, SingleCopyTiming) {
  const Fabric f = chain_fabric(2);
  Program p;
  Op op;
  op.kind = OpKind::kCopy;
  op.route = f.nvlink_route(0, 0, 1);
  op.bytes = 10.0e9;  // exactly one second at 10 GB/s
  op.stream = p.new_stream();
  p.add(op);
  const auto result = execute(f, p);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

TEST(Executor, LatencyAddsToTransferTime) {
  const Fabric f = chain_fabric(2);
  Program p;
  Op op;
  op.kind = OpKind::kCopy;
  op.route = f.nvlink_route(0, 0, 1);
  op.bytes = 10.0e9;
  op.latency = 0.25;
  op.stream = p.new_stream();
  p.add(op);
  EXPECT_NEAR(execute(f, p).makespan, 1.25, 1e-9);
}

TEST(Executor, StreamSerializesOps) {
  const Fabric f = chain_fabric(2);
  Program p;
  const int s = p.new_stream();
  for (int i = 0; i < 3; ++i) {
    Op op;
    op.kind = OpKind::kCopy;
    op.route = f.nvlink_route(0, 0, 1);
    op.bytes = 10.0e9;
    op.stream = s;
    p.add(op);
  }
  EXPECT_NEAR(execute(f, p).makespan, 3.0, 1e-9);
}

TEST(Executor, ParallelStreamsShareChannelFairly) {
  const Fabric f = chain_fabric(2);
  Program p;
  for (int i = 0; i < 2; ++i) {
    Op op;
    op.kind = OpKind::kCopy;
    op.route = f.nvlink_route(0, 0, 1);
    op.bytes = 10.0e9;
    op.stream = p.new_stream();
    p.add(op);
  }
  // Two flows on one 10 GB/s channel: both finish at 2 s.
  EXPECT_NEAR(execute(f, p).makespan, 2.0, 1e-9);
}

TEST(Executor, IndependentChannelsRunConcurrently) {
  const Fabric f = chain_fabric(3);
  Program p;
  for (const auto& route :
       {f.nvlink_route(0, 0, 1), f.nvlink_route(0, 1, 2)}) {
    Op op;
    op.kind = OpKind::kCopy;
    op.route = route;
    op.bytes = 10.0e9;
    op.stream = p.new_stream();
    p.add(op);
  }
  EXPECT_NEAR(execute(f, p).makespan, 1.0, 1e-9);
}

TEST(Executor, DependencyChainsAcrossStreams) {
  const Fabric f = chain_fabric(3);
  Program p;
  Op first;
  first.kind = OpKind::kCopy;
  first.route = f.nvlink_route(0, 0, 1);
  first.bytes = 10.0e9;
  first.stream = p.new_stream();
  const int id = p.add(first);
  Op second;
  second.kind = OpKind::kCopy;
  second.route = f.nvlink_route(0, 1, 2);
  second.bytes = 10.0e9;
  second.stream = p.new_stream();
  second.deps = {id};
  p.add(second);
  EXPECT_NEAR(execute(f, p).makespan, 2.0, 1e-9);
}

TEST(Executor, ChunkedPipelineHalvesChainLatency) {
  // Figure 11: two hops, payload split in chunks, hop 2 of chunk 1 overlaps
  // hop 1 of chunk 2.
  const Fabric f = chain_fabric(3);
  const double total = 10.0e9;
  for (const int chunks : {1, 2, 10}) {
    Program p;
    const int s0 = p.new_stream();
    const int s1 = p.new_stream();
    for (int c = 0; c < chunks; ++c) {
      Op hop1;
      hop1.kind = OpKind::kCopy;
      hop1.route = f.nvlink_route(0, 0, 1);
      hop1.bytes = total / chunks;
      hop1.stream = s0;
      const int id = p.add(hop1);
      Op hop2;
      hop2.kind = OpKind::kCopy;
      hop2.route = f.nvlink_route(0, 1, 2);
      hop2.bytes = total / chunks;
      hop2.stream = s1;
      hop2.deps = {id};
      p.add(hop2);
    }
    const double expected = 1.0 + 1.0 / chunks;  // fill + drain
    EXPECT_NEAR(execute(f, p).makespan, expected, 1e-9) << chunks;
  }
}

TEST(Executor, EventSyncDelaysCrossStreamDependents) {
  FabricParams params;
  params.copy_launch_latency = 0.0;
  params.reduce_launch_latency = 0.0;
  params.event_sync_latency = 0.1;
  const Fabric f(topo::make_chain(3, 10.0e9), params);
  Program p;
  Op first;
  first.kind = OpKind::kCopy;
  first.route = f.nvlink_route(0, 0, 1);
  first.bytes = 10.0e9;
  first.stream = p.new_stream();
  const int id = p.add(first);
  Op second;
  second.kind = OpKind::kCopy;
  second.route = f.nvlink_route(0, 1, 2);
  second.bytes = 10.0e9;
  second.stream = p.new_stream();  // different stream -> pays the sync
  second.deps = {id};
  p.add(second);
  EXPECT_NEAR(execute(f, p).makespan, 2.1, 1e-9);

  // Same-stream successors do not pay it.
  Program q;
  const int s = q.new_stream();
  Op a = first;
  a.stream = s;
  const int ida = q.add(a);
  Op b = second;
  b.stream = s;
  b.deps = {ida};
  q.add(b);
  EXPECT_NEAR(execute(f, q).makespan, 2.0, 1e-9);
}

TEST(Executor, DelayOp) {
  const Fabric f = chain_fabric(2);
  Program p;
  Op op;
  op.kind = OpKind::kDelay;
  op.latency = 0.5;
  op.stream = p.new_stream();
  p.add(op);
  EXPECT_NEAR(execute(f, p).makespan, 0.5, 1e-12);
}

TEST(Executor, ReduceEngineSharing) {
  FabricParams params;
  params.copy_launch_latency = 0.0;
  params.reduce_launch_latency = 0.0;
  params.event_sync_latency = 0.0;
  params.reduce_bw = 10.0e9;
  const Fabric f(topo::make_chain(2, 10.0e9), params);
  Program p;
  for (int i = 0; i < 2; ++i) {
    Op op;
    op.kind = OpKind::kReduce;
    op.route = {f.reduce_channel(0, 0)};
    op.bytes = 10.0e9;
    op.stream = p.new_stream();
    p.add(op);
  }
  EXPECT_NEAR(execute(f, p).makespan, 2.0, 1e-9);
}

TEST(Executor, EmptyProgram) {
  const Fabric f = chain_fabric(2);
  Program p;
  EXPECT_DOUBLE_EQ(execute(f, p).makespan, 0.0);
}

TEST(Executor, ChannelBytesAccounting) {
  const Fabric f = chain_fabric(2);
  Program p;
  Op op;
  op.kind = OpKind::kCopy;
  op.route = f.nvlink_route(0, 0, 1);
  op.bytes = 4.0e9;
  op.stream = p.new_stream();
  p.add(op);
  const auto result = execute(f, p);
  EXPECT_DOUBLE_EQ(
      result.channel_bytes[static_cast<std::size_t>(op.route[0])], 4.0e9);
}

TEST(Executor, ZeroByteOpsCompleteImmediately) {
  const Fabric f = chain_fabric(2);
  Program p;
  Op op;
  op.kind = OpKind::kCopy;
  op.route = f.nvlink_route(0, 0, 1);
  op.bytes = 0.0;
  op.stream = p.new_stream();
  const int id = p.add(op);
  Op dep;
  dep.kind = OpKind::kDelay;
  dep.latency = 0.0;
  dep.stream = p.new_stream();
  dep.deps = {id};
  p.add(dep);
  EXPECT_DOUBLE_EQ(execute(f, p).makespan, 0.0);
}

TEST(Executor, GroupMembersContendForChannels) {
  const Fabric f = chain_fabric(2);
  auto one_copy = [&] {
    Program p;
    Op op;
    op.kind = OpKind::kCopy;
    op.route = f.nvlink_route(0, 0, 1);
    op.bytes = 10.0e9;  // one second alone at 10 GB/s
    op.stream = p.new_stream();
    p.add(op);
    return p;
  };
  const Program a = one_copy();
  const Program b = one_copy();
  const std::vector<const Program*> members{&a, &b};
  const auto group = execute_group(f, members);
  // Fair sharing: both finish together at 2x the solo time.
  ASSERT_EQ(group.makespan.size(), 2u);
  EXPECT_NEAR(group.makespan[0], 2.0, 1e-9);
  EXPECT_NEAR(group.makespan[1], 2.0, 1e-9);
  EXPECT_NEAR(group.run.makespan, 2.0, 1e-9);
  EXPECT_EQ(group.ops[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(group.ops[1], (std::pair<int, int>{1, 2}));
}

TEST(Executor, GroupDisjointChannelsRunConcurrently) {
  const Fabric f = chain_fabric(3);
  auto copy_between = [&](int src, int dst, double bytes) {
    Program p;
    Op op;
    op.kind = OpKind::kCopy;
    op.route = f.nvlink_route(0, src, dst);
    op.bytes = bytes;
    op.stream = p.new_stream();
    p.add(op);
    return p;
  };
  const Program a = copy_between(0, 1, 10.0e9);
  const Program b = copy_between(1, 2, 5.0e9);
  const std::vector<const Program*> members{&a, &b};
  const auto group = execute_group(f, members);
  EXPECT_NEAR(group.makespan[0], 1.0, 1e-9);  // unaffected by b
  EXPECT_NEAR(group.makespan[1], 0.5, 1e-9);
  EXPECT_NEAR(group.run.makespan, 1.0, 1e-9);
}

TEST(Executor, GroupWithEmptyMember) {
  const Fabric f = chain_fabric(2);
  Program a;
  Op op;
  op.kind = OpKind::kCopy;
  op.route = f.nvlink_route(0, 0, 1);
  op.bytes = 10.0e9;
  op.stream = a.new_stream();
  a.add(op);
  const Program empty;
  const std::vector<const Program*> members{&a, &empty};
  const auto group = execute_group(f, members);
  EXPECT_NEAR(group.makespan[0], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(group.makespan[1], 0.0);
}

// --- differential: incremental executor vs the reference ---------------------

// A random schedule over |fabric|: ops on a few streams with random
// cross-stream deps, routes of 1-4 distinct channels, payloads drawn from a
// small set (so flows tie on rates and finish times), zero-byte ops,
// route-less zero-byte copies, latency-only delays and launch latencies.
Program random_program(Rng& rng, const Fabric& fabric, int num_ops) {
  Program p;
  const int streams = rng.next_int(1, 6);
  for (int s = 0; s < streams; ++s) p.new_stream();
  const double payloads[] = {0.0, 1.0e6, 1.0e6, 2.0e6, 4.0e6, 3.3e6};
  const double latencies[] = {0.0, 0.0, 2.0e-6, 1.0e-5};
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    op.stream = rng.next_int(0, streams - 1);
    op.latency = latencies[rng.next_below(4)];
    const int shape = rng.next_int(0, 9);
    if (shape == 0) {
      op.kind = OpKind::kDelay;
      op.latency = 1.0e-6 + 1.0e-5 * rng.next_double();
    } else if (shape == 1) {
      op.kind = OpKind::kCopy;  // route-less, zero bytes
    } else {
      op.kind = shape == 2 ? OpKind::kReduce : OpKind::kCopy;
      const int hops = rng.next_int(1, std::min(4, fabric.num_channels()));
      while (static_cast<int>(op.route.size()) < hops) {
        const int c = rng.next_int(0, fabric.num_channels() - 1);
        if (std::find(op.route.begin(), op.route.end(), c) == op.route.end()) {
          op.route.push_back(c);
        }
      }
      op.bytes = payloads[rng.next_below(6)];
    }
    const int deps = i == 0 ? 0 : rng.next_int(0, 2);
    for (int d = 0; d < deps; ++d) op.deps.push_back(rng.next_int(0, i - 1));
    p.add(std::move(op));
  }
  return p;
}

void expect_bit_identical(const RunResult& a, const RunResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.makespan, b.makespan) << where;
  EXPECT_EQ(a.op_start, b.op_start) << where;
  EXPECT_EQ(a.op_finish, b.op_finish) << where;
  EXPECT_EQ(a.channel_bytes, b.channel_bytes) << where;
}

TEST(Executor, MatchesReferenceOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const auto rf = topo::zoo::make_random_fabric(seed);
    FabricParams params = rf.fabric;
    if (seed % 5 == 0) params.event_sync_latency = 0.0;  // same-instant release
    Fabric fabric(rf.servers, params);
    Rng rng(seed * 7919);
    if (seed % 3 == 0) {
      // Degraded channels: uneven capacities inside a component.
      for (int k = 0; k < 3; ++k) {
        fabric.degrade_link(rng.next_int(0, fabric.num_channels() - 1),
                            0.1 + 0.8 * rng.next_double());
      }
    }
    const std::string where = "seed " + std::to_string(seed);

    const Program solo = random_program(rng, fabric, rng.next_int(1, 120));
    expect_bit_identical(execute(fabric, solo),
                         reference_execute(fabric, solo), where);

    std::vector<Program> members;
    const int count = rng.next_int(2, 4);
    for (int m = 0; m < count; ++m) {
      members.push_back(random_program(rng, fabric, rng.next_int(0, 60)));
    }
    std::vector<const Program*> ptrs;
    for (const Program& m : members) ptrs.push_back(&m);
    const GroupRunResult got = execute_group(fabric, ptrs);
    const GroupRunResult want = reference_execute_group(fabric, ptrs);
    expect_bit_identical(got.run, want.run, where + " (group)");
    EXPECT_EQ(got.makespan, want.makespan) << where;
    EXPECT_EQ(got.ops, want.ops) << where;
  }
}

TEST(Executor, RejectsLikeReference) {
  const Fabric f = chain_fabric(2);
  Program bad;
  Op op;
  op.kind = OpKind::kDelay;
  op.route = f.nvlink_route(0, 0, 1);  // delays must not use channels
  op.stream = bad.new_stream();
  bad.add(op);
  EXPECT_THROW(execute(f, bad), std::logic_error);
  EXPECT_THROW(reference_execute(f, bad), std::logic_error);

  Fabric failed = chain_fabric(2);
  Program stale;
  Op copy;
  copy.route = failed.nvlink_route(0, 0, 1);
  copy.bytes = 1.0e6;
  copy.stream = stale.new_stream();
  stale.add(copy);
  failed.fail_link(copy.route.front());
  const std::vector<const Program*> members{&stale};
  EXPECT_THROW(execute_group(failed, members), std::runtime_error);
  EXPECT_THROW(reference_execute_group(failed, members), std::runtime_error);
}

}  // namespace
}  // namespace blink::sim
