// Planning-path microbenchmarks (google-benchmark): TreeGen runs once per
// job at startup (§2.3), so its own cost — MWU iterations, the ILP, the
// simplex — must stay negligible next to a training run. The paper's
// near-linear-time MWU claim (§3.2) is checked here in wall-clock form.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "blink/blink/communicator.h"
#include "blink/blink/multiserver.h"
#include "blink/dnn/models.h"
#include "blink/blink/plan_io.h"
#include "blink/blink/treegen.h"
#include "blink/graph/arborescence.h"
#include "blink/graph/maxflow.h"
#include "blink/packing/packing.h"
#include "blink/sim/executor.h"
#include "blink/blink/codegen.h"
#include "blink/topology/builders.h"
#include "blink/topology/discovery.h"
#include "blink/topology/zoo.h"

namespace {

using namespace blink;

void BM_MinCostArborescence(benchmark::State& state) {
  const auto g = graph::nvlink_digraph(topo::make_dgx1v());
  std::vector<double> cost(static_cast<std::size_t>(g.num_edges()), 1.0);
  for (std::size_t i = 0; i < cost.size(); ++i) cost[i] = 1.0 + 0.1 * i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::min_cost_arborescence(g, 0, cost));
  }
}
BENCHMARK(BM_MinCostArborescence);

void BM_MaxFlowBound(benchmark::State& state) {
  const auto g = graph::nvlink_digraph(topo::make_dgx1v());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::broadcast_rate_upper_bound(g, 0));
  }
}
BENCHMARK(BM_MaxFlowBound);

void BM_MwuPack(benchmark::State& state) {
  const auto g = graph::nvlink_digraph(topo::make_dgx1v());
  packing::MwuOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::mwu_pack(g, 0, opts));
  }
}
BENCHMARK(BM_MwuPack)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

// MWU at the default epsilon on the graphs a job start packs (the
// blinkbench alloc_churn mix): a 5-GPU DGX-1V fragment, the whole DGX-1V
// under the undirected (all-reduce) capacity model, and the 4-GPU NVSwitch
// box of a fat-tree server.
void BM_MwuPackJobStart(benchmark::State& state, const graph::DiGraph& g) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::mwu_pack(g, 0));
  }
}
BENCHMARK_CAPTURE(BM_MwuPackJobStart, dgx1v_5gpu,
                  graph::nvlink_digraph(topo::induced_topology(
                      topo::make_dgx1v(), std::vector<int>{0, 1, 2, 3, 4})));
BENCHMARK_CAPTURE(BM_MwuPackJobStart, dgx1v_8gpu_undirected,
                  graph::nvlink_digraph(topo::make_dgx1v(),
                                        /*undirected_capacity=*/true));
BENCHMARK_CAPTURE(BM_MwuPackJobStart, nvswitch_4gpu,
                  graph::nvlink_digraph(topo::zoo::make_nvswitch_box(4)));

void BM_MinimizeTrees(benchmark::State& state) {
  const auto g = graph::nvlink_digraph(topo::make_dgx1v());
  const auto candidates = packing::mwu_pack(g, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::minimize_trees(g, 0, candidates.trees));
  }
}
BENCHMARK(BM_MinimizeTrees);

void BM_TreeGenEndToEnd(benchmark::State& state) {
  const auto machine = topo::make_dgx1v();
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_trees(machine, 0));
  }
}
BENCHMARK(BM_TreeGenEndToEnd);

void BM_SimulateBroadcast(benchmark::State& state) {
  const auto machine = topo::make_dgx1v();
  const sim::Fabric fabric(machine, sim::FabricParams{});
  const auto set = generate_trees(machine, 0);
  const auto trees = route_trees(fabric, 0, set);
  const double bytes = static_cast<double>(state.range(0)) * 1e6;
  for (auto _ : state) {
    ProgramBuilder builder(fabric, CodeGenOptions{});
    builder.broadcast(trees, bytes);
    benchmark::DoNotOptimize(sim::execute(fabric, builder.take()));
  }
  state.SetLabel(std::to_string(state.range(0)) + "MB payload");
}
BENCHMARK(BM_SimulateBroadcast)->Arg(10)->Arg(100)->Arg(500);

// The plan/execute split's two halves: what a cold compile costs (TreeGen +
// CodeGen, paid once per shape) versus a warm compile (an LRU cache hit,
// paid every iteration of a training job).
void BM_CompileCold(benchmark::State& state) {
  const auto machine = topo::make_dgx1v();
  for (auto _ : state) {
    Communicator comm(machine);  // fresh caches: full TreeGen + CodeGen
    benchmark::DoNotOptimize(
        comm.compile(CollectiveKind::kBroadcast, 500e6, 0));
  }
  // items/sec is cold plans per second — the planner's throughput unit,
  // comparable directly against BM_CompileColdParallel below.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileCold);

// Cold-compile throughput under concurrent clients: every thread compiles a
// stream of distinct shapes against one shared communicator, so each compile
// is a cache miss on its own plan key and the engine's per-key single-flight
// admits them all concurrently. items/sec at --benchmark_min_time growth
// over the 1-thread row is the planner-pool speedup (bounded by cores; on a
// single-core host the rows collapse to serial throughput).
void BM_CompileColdParallel(benchmark::State& state) {
  static Communicator* comm = nullptr;
  static std::atomic<std::uint64_t> next_shape{0};
  if (state.thread_index() == 0) {
    comm = new Communicator(topo::make_dgx1v());
  }
  for (auto _ : state) {
    // Distinct bytes per compile: always cold, never single-flight-merged.
    const double bytes =
        1e6 + 4096.0 * static_cast<double>(next_shape.fetch_add(1));
    benchmark::DoNotOptimize(
        comm->compile(CollectiveKind::kBroadcast, bytes, 0));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete comm;
    comm = nullptr;
  }
}
BENCHMARK(BM_CompileColdParallel)->ThreadRange(1, 8)->UseRealTime();

void BM_CompileCacheHit(benchmark::State& state) {
  Communicator comm(topo::make_dgx1v());
  comm.compile(CollectiveKind::kBroadcast, 500e6, 0);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        comm.compile(CollectiveKind::kBroadcast, 500e6, 0));
  }
}
BENCHMARK(BM_CompileCacheHit);

void BM_ExecutePlan(benchmark::State& state) {
  CommunicatorOptions opts;
  opts.memoize = false;  // re-run the fabric simulation every time
  Communicator comm(topo::make_dgx1v(), opts);
  const auto plan = comm.compile(CollectiveKind::kBroadcast, 500e6, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm.execute(*plan));
  }
}
BENCHMARK(BM_ExecutePlan);

// One grouped training step, as blinkbench's cluster_step runs it: VGG16's
// gradient-bucket all-reduces launched as one group on a 16-GPU fat-tree
// (2 racks x 2 servers x 4 GPUs, 5 GB/s NICs, 2:1 oversubscription). The
// plans are compiled once; with memoization off every iteration re-runs
// the fluid simulation of the whole group (warm lookups + execute_group).
void BM_ExecuteGroup(benchmark::State& state) {
  const auto cluster = topo::zoo::make_fat_tree_cluster(2, 2, 4, 5e9, 2.0);
  ClusterOptions opts;
  opts.fabric = cluster.fabric;
  opts.engine.planner_threads = 1;
  opts.engine.memoize = false;
  ClusterCommunicator comm(cluster.servers, opts);
  const dnn::ModelSpec model = dnn::vgg16();
  std::vector<CollectiveRequest> step;
  for (const double f : model.bucket_fractions) {
    step.push_back({CollectiveKind::kAllReduce, model.param_bytes * f, -1, 0});
    comm.compile(step.back().kind, step.back().bytes, step.back().root);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm.run(step));
  }
}
BENCHMARK(BM_ExecuteGroup)->Unit(benchmark::kMillisecond);

// Compiling against a warm persistent plan store: every shape is a cache
// hit loaded from disk, never TreeGen/CodeGen.
void BM_CompileWarmStore(benchmark::State& state) {
  const auto tmp =
      std::filesystem::temp_directory_path() / "blink-bench-plan-store";
  std::filesystem::create_directories(tmp);
  CommunicatorOptions opts;
  opts.plan_store_dir = tmp.string();
  {
    Communicator comm(topo::make_dgx1v(), opts);  // cold: compile + flush
    comm.compile(CollectiveKind::kBroadcast, 500e6, 0);
  }
  for (auto _ : state) {
    Communicator comm(topo::make_dgx1v(), opts);
    benchmark::DoNotOptimize(
        comm.compile(CollectiveKind::kBroadcast, 500e6, 0));
    if (comm.plan_cache().misses() != 0) {
      state.SkipWithError("warm store compile recompiled");
    }
  }
  std::filesystem::remove_all(tmp);
}
BENCHMARK(BM_CompileWarmStore);

// The fig18-style zero-recompile check, across real process boundaries:
// when BLINK_PLAN_CACHE_DIR is set, compile a model-sized shape mix against
// that store. On a cold start (no store file yet) the plans are compiled
// and flushed at exit; on a warm start (the previous run's file exists)
// every compile must be a hit — a single TreeGen/CodeGen recompile exits
// nonzero, so `bench_micro_planning` run twice with a shared dir proves
// that schedules survive process restarts.
int plan_store_warm_start_check() {
  const char* dir = std::getenv("BLINK_PLAN_CACHE_DIR");
  if (dir == nullptr || *dir == '\0') return 0;
  CommunicatorOptions opts;
  opts.codegen.chunk_bytes = 4u << 20;
  opts.plan_store_dir = dir;
  Communicator comm(topo::make_dgx1v(), opts);
  const bool warm = std::filesystem::exists(comm.plan_store_path());
  comm.all_reduce(400e6);   // AlexNet-scale gradient exchange
  comm.all_reduce(100e6);
  comm.broadcast(200e6, 0);
  const auto misses = comm.plan_cache().misses();
  const auto hits = comm.plan_cache().hits();
  if (warm && misses != 0) {
    std::fprintf(stderr,
                 "FAIL: warm start from %s recompiled %llu plans "
                 "(expected every compile to hit the loaded store)\n",
                 dir, static_cast<unsigned long long>(misses));
    return 1;
  }
  std::printf("plan store %s start: %llu compiles, %llu hits (%s)\n",
              warm ? "warm" : "cold", static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(hits), dir);
  return 0;
}

// The parallel-planning gate, in exit-code form: compile 16 distinct shapes
// twice — once on a serial planner (planner_threads = 1, one client thread)
// and once on the full pool (default width, 8 client threads) — then require
// (a) every parallel-compiled program to be bit-identical to its serial
// twin (parallelism is a pure speed knob, §3.2's plans don't change), and
// (b) a core-scaled cold-compile speedup: >= 4x on hosts with 8+ cores,
// >= 0.45x-per-core below that. On a single-core host the speedup check is
// skipped (there is nothing to parallelize onto) but the bit-identity check
// still runs.
int parallel_compile_gate() {
  const auto machine = topo::make_dgx1v();
  constexpr int kShapes = 16;
  const auto shape_bytes = [](int i) { return 8e6 * (i + 1); };
  const auto shape_kind = [](int i) {
    return i % 2 == 0 ? CollectiveKind::kBroadcast
                      : CollectiveKind::kAllReduce;
  };

  // Compiles every shape with |client_threads| racing clients and returns
  // the wall-clock seconds; |blobs| gets each shape's serialized program.
  const auto run = [&](int planner_threads, int client_threads,
                       std::vector<std::string>* blobs) {
    CommunicatorOptions opts;
    opts.planner_threads = planner_threads;
    Communicator comm(machine, opts);
    blobs->assign(kShapes, {});
    std::atomic<int> next{0};
    const auto worker = [&] {
      for (int i = next.fetch_add(1); i < kShapes; i = next.fetch_add(1)) {
        const auto plan = comm.compile(shape_kind(i), shape_bytes(i), 0);
        serialize_program(plan->program(), &(*blobs)[i]);
      }
    };
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int t = 1; t < client_threads; ++t) clients.emplace_back(worker);
    worker();
    for (auto& c : clients) c.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::vector<std::string> serial_blobs;
  std::vector<std::string> parallel_blobs;
  const double serial_s = run(/*planner_threads=*/1, /*client_threads=*/1,
                              &serial_blobs);
  const double parallel_s = run(/*planner_threads=*/0, /*client_threads=*/8,
                                &parallel_blobs);

  for (int i = 0; i < kShapes; ++i) {
    if (serial_blobs[i].empty() || serial_blobs[i] != parallel_blobs[i]) {
      std::fprintf(stderr,
                   "FAIL: parallel-compiled plan for shape %d differs from "
                   "the serial compile (parallel planning must be "
                   "bit-identical)\n",
                   i);
      return 1;
    }
  }

  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "parallel planning gate: %d shapes, serial %.3f s, parallel %.3f s "
      "(%.2fx, %u cores), plans bit-identical\n",
      kShapes, serial_s, parallel_s, speedup, cores);
  if (cores <= 1) {
    std::printf("SKIP: single-core host, parallel speedup not enforced\n");
    return 0;
  }
  const double required = std::min(4.0, 0.45 * static_cast<double>(cores));
  if (speedup < required) {
    std::fprintf(stderr,
                 "FAIL: parallel cold-compile speedup %.2fx < required "
                 "%.2fx on %u cores\n",
                 speedup, required, cores);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Both checks always run and report, so a failing gate cannot hide the
  // warm-start verdict (or the other way round).
  const int gate = parallel_compile_gate();
  std::printf("parallel planning gate: %s\n", gate == 0 ? "PASS" : "FAIL");
  const int warm = plan_store_warm_start_check();
  const char* dir = std::getenv("BLINK_PLAN_CACHE_DIR");
  std::printf("plan store warm-start check: %s\n",
              dir == nullptr || *dir == '\0' ? "SKIP (BLINK_PLAN_CACHE_DIR unset)"
              : warm == 0                     ? "PASS"
                                              : "FAIL");
  return gate != 0 || warm != 0 ? 1 : 0;
}
