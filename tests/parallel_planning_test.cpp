// Parallel cold-path planning: per-PlanKey single-flight semantics, the
// determinism contract (parallel-compiled plans are bit-identical to serial
// ones — planner width is a pure speed knob, never a fingerprint), and the
// batched compile_batch()/precompile() entry points.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blink/baselines/backends.h"
#include "blink/blink/communicator.h"
#include "blink/blink/engine.h"
#include "blink/blink/multiserver.h"
#include "blink/blink/plan_io.h"
#include "blink/common/single_flight.h"
#include "blink/common/thread_pool.h"
#include "blink/topology/builders.h"

namespace blink {
namespace {

// --- SingleFlight ----------------------------------------------------------

TEST(SingleFlight, LeaderRunsOnceAndWaitersShareTheValue) {
  common::SingleFlight<int, std::shared_ptr<int>> flight;
  std::atomic<int> computes{0};
  std::atomic<int> leaders{0};
  constexpr int kRacers = 8;
  std::vector<std::shared_ptr<int>> results(kRacers);
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      bool leader = false;
      results[t] = flight.run(
          /*key=*/7,
          [&] {
            computes.fetch_add(1);
            // Hold the flight open long enough for the others to join it.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::make_shared<int>(42);
          },
          &leader);
      if (leader) leaders.fetch_add(1);
    });
  }
  go.store(true);
  for (auto& r : racers) r.join();
  // Every racer that joined an in-flight computation shares the leader's
  // value (same pointer). Racers that arrived after a flight retired start
  // a fresh one, so computes can exceed 1 — but leaders == computes, and
  // every result is valid.
  EXPECT_EQ(leaders.load(), computes.load());
  EXPECT_GE(computes.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, 42);
  }
}

TEST(SingleFlight, ExceptionPropagatesAndTheKeyRetires) {
  common::SingleFlight<int, int> flight;
  EXPECT_THROW(flight.run(1,
                          []() -> int {
                            throw std::runtime_error("lowering failed");
                          }),
               std::runtime_error);
  // The failed flight retired its key: the next caller retries and wins.
  EXPECT_EQ(flight.run(1, [] { return 5; }), 5);
}

TEST(SingleFlight, DistinctKeysProceedIndependently) {
  common::SingleFlight<int, int> flight;
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(flight.run(k, [&] { return k * k; }), k * k);
  }
}

// --- determinism: parallel == serial, bit for bit --------------------------

std::string serialized(const Communicator& comm,
                       const std::shared_ptr<const CollectivePlan>& plan) {
  (void)comm;
  std::string out;
  serialize_program(plan->program(), &out);
  return out;
}

TEST(ParallelPlanning, ParallelCompilesAreBitIdenticalToSerial) {
  const auto machine = topo::make_dgx1v();
  constexpr int kShapes = 8;
  const auto kind_of = [](int i) {
    return i % 2 == 0 ? CollectiveKind::kBroadcast
                      : CollectiveKind::kAllReduce;
  };
  const auto bytes_of = [](int i) { return 4e6 * (i + 1); };

  // Serial reference: planner_threads == 1, one thread.
  CommunicatorOptions serial_opts;
  serial_opts.planner_threads = 1;
  Communicator serial(machine, serial_opts);
  EXPECT_EQ(serial.planner_threads(), 1u);
  std::vector<std::string> want(kShapes);
  for (int i = 0; i < kShapes; ++i) {
    want[i] = serialized(serial, serial.compile(kind_of(i), bytes_of(i), 0));
  }

  // Parallel: default pool width, racing client threads.
  Communicator parallel(machine);
  std::vector<std::string> got(kShapes);
  std::atomic<int> next{0};
  const auto worker = [&] {
    for (int i = next.fetch_add(1); i < kShapes; i = next.fetch_add(1)) {
      got[i] = serialized(parallel,
                          parallel.compile(kind_of(i), bytes_of(i), 0));
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) clients.emplace_back(worker);
  for (auto& c : clients) c.join();

  for (int i = 0; i < kShapes; ++i) {
    ASSERT_FALSE(want[i].empty());
    EXPECT_EQ(want[i], got[i]) << "shape " << i;
  }
}

TEST(ParallelPlanning, SameShapeRaceCompilesExactlyOnce) {
  Communicator comm(topo::make_dgx1v());
  constexpr int kRacers = 6;
  std::vector<std::shared_ptr<const CollectivePlan>> plans(kRacers);
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      plans[t] = comm.compile(CollectiveKind::kAllReduce, 64e6);
    });
  }
  go.store(true);
  for (auto& r : racers) r.join();

  // One lowering, shared by everyone: a single cache miss, and every racer
  // holds the same immutable plan.
  EXPECT_EQ(comm.plan_cache().misses(), 1u);
  EXPECT_EQ(comm.plan_cache().hits(),
            static_cast<std::uint64_t>(kRacers - 1));
  for (int t = 1; t < kRacers; ++t) {
    EXPECT_EQ(plans[t].get(), plans[0].get());
  }
}

// --- batched entry points --------------------------------------------------

TEST(ParallelPlanning, CompileBatchMatchesPerRequestCompiles) {
  const auto machine = topo::make_dgx1v();
  Communicator comm(machine);
  const std::vector<CollectiveRequest> reqs{
      {CollectiveKind::kBroadcast, 16e6, 0, 0},
      {CollectiveKind::kAllReduce, 32e6, -1, 0},
      {CollectiveKind::kAllGather, 8e6, -1, 0},
      {CollectiveKind::kBroadcast, 16e6, 0, 0},  // duplicate key: coalesces
  };
  const auto plans = comm.compile_batch(reqs);
  ASSERT_EQ(plans.size(), reqs.size());
  for (const auto& plan : plans) ASSERT_NE(plan, nullptr);
  // Duplicate requests coalesced onto one lowering/plan.
  EXPECT_EQ(plans[0].get(), plans[3].get());
  // The batch is identical to compiling each request individually — the
  // per-request compiles below are all cache hits on the batch's plans.
  const auto misses = comm.plan_cache().misses();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto again =
        comm.compile(reqs[i].kind, reqs[i].bytes, reqs[i].root);
    EXPECT_EQ(again.get(), plans[i].get()) << "request " << i;
  }
  EXPECT_EQ(comm.plan_cache().misses(), misses);
}

TEST(ParallelPlanning, PrecompileWarmsEveryKindOnce) {
  Communicator comm(topo::make_dgx1v());
  const std::size_t cold = comm.precompile(64e6, /*root=*/0);
  EXPECT_GT(cold, 0u);
  // The shape is now fully warm: precompiling again finds nothing cold, and
  // compiling any kind is a pure cache hit.
  EXPECT_EQ(comm.precompile(64e6, /*root=*/0), 0u);
  const auto misses = comm.plan_cache().misses();
  comm.compile(CollectiveKind::kAllReduce, 64e6, 0);
  comm.compile(CollectiveKind::kBroadcast, 64e6, 0);
  EXPECT_EQ(comm.plan_cache().misses(), misses);
  EXPECT_THROW(comm.precompile(-1.0), std::invalid_argument);
}

// --- auto bake-off determinism ---------------------------------------------

std::unique_ptr<Communicator> auto_engine(const topo::Topology& topo,
                                          int planner_threads) {
  CommunicatorOptions opts;
  opts.planner_threads = planner_threads;
  auto comm = std::make_unique<Communicator>(topo, opts);
  for (const char* name : {"nccl", "ring", "double_binary", "butterfly"}) {
    comm->register_backend(baselines::make_baseline_backend(
        name, comm->topology(), comm->fabric(), baselines::NcclOptions{}));
  }
  return comm;
}

TEST(ParallelPlanning, AutoBakeOffPicksTheSameBackendAtAnyWidth) {
  const auto machine = topo::make_dgx1v();
  const auto serial = auto_engine(machine, /*planner_threads=*/1);
  const auto parallel = auto_engine(machine, /*planner_threads=*/0);
  for (const double bytes : {1e6, 64e6, 512e6}) {
    const auto a = serial->compile(CollectiveKind::kAllReduce, bytes, -1,
                                   CollectiveEngine::kAutoBackend);
    const auto b = parallel->compile(CollectiveKind::kAllReduce, bytes, -1,
                                     CollectiveEngine::kAutoBackend);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->backend(), b->backend()) << bytes;
    std::string sa, sb;
    serialize_program(a->program(), &sa);
    serialize_program(b->program(), &sb);
    EXPECT_EQ(sa, sb) << bytes;
  }
}

// Regression: at planner width 2, repair_plans() recompiles affected plans
// in a parallel_for whose iterations share tree-set slots (one per root).
// A thread inside a slot's std::call_once used to wait in TreeGen's nested
// parallel_for by running other queued tasks, picked up a sibling recompile
// needing the same slot and blocked on the once_flag it already held. The
// race needs the repair's helper task to still be queued at that moment, so
// half the rounds park every worker of the shared pool first, which makes
// the old interleaving certain. ctest's TIMEOUT on this executable turns a
// hang into a failure.
TEST(ParallelPlanning, RepairAtWidthTwoDoesNotDeadlock) {
  common::ThreadPool& pool = common::ThreadPool::shared();
  std::atomic<bool> release{false};
  std::atomic<std::size_t> parked{0};
  std::atomic<std::size_t> unparked{0};
  const auto unpark = [&] {
    release.store(true);
    while (unparked.load() < parked.load()) std::this_thread::yield();
  };
  struct Unpark {
    const decltype(unpark)& fn;
    ~Unpark() { fn(); }
  } unpark_on_exit{unpark};
  for (int round = 0; round < 4; ++round) {
    if (round % 2 == 0) {
      release.store(false);
      const std::size_t target = parked.load() + pool.num_threads();
      for (std::size_t w = 0; w < pool.num_threads(); ++w) {
        pool.post([&] {
          parked.fetch_add(1);
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          unparked.fetch_add(1);
        });
      }
      while (parked.load() < target) std::this_thread::yield();
    }

    // Two DGX-1V servers: every cluster plan draws on per-(server, root)
    // tree-set slots, and several shapes per root make sibling recompiles
    // share them.
    ClusterOptions opts;
    opts.engine.planner_threads = 2;
    const auto machine = topo::make_dgx1v();
    ClusterCommunicator comm({machine, machine}, opts);
    for (int k = 1; k <= 4; ++k) {
      comm.compile(CollectiveKind::kAllReduce, 4e6 * k);
      for (const int root : {0, 3, 9, 14}) {
        comm.compile(CollectiveKind::kBroadcast, 4e6 * k, root);
        comm.compile(CollectiveKind::kReduce, 4e6 * k, root);
      }
    }
    const int channel = comm.fabric().nvlink_route(0, 0, 1)[0];
    for (int i = 0; i < 4; ++i) {
      sim::HealthEvent event;
      if (i % 2 == 0) {
        event.kind = sim::HealthEventKind::kDegradeLink;
        event.channel = channel;
        event.factor = 0.5;
      } else {
        event.kind = sim::HealthEventKind::kRestoreAll;
      }
      const RepairReport report = comm.repair_plans(event);
      EXPECT_GT(report.retained + report.dropped, 0u);
    }
    EXPECT_GT(comm.broadcast(8e6, 3).seconds, 0.0);
    unpark();
  }
}

}  // namespace
}  // namespace blink
