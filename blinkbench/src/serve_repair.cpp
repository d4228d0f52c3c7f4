// serve_repair: a restarted serve::PlanService daemon under warm traffic and
// fabric health events.
//
// Twelve shards: DGX-1P, DGX-1V and DGX-2 allocations, each planned by the
// blink, nccl, ring and auto backends. Their plan store is filled before the
// run and that filling is not timed. Set-up starts the service and sends
// kWarmLoad to every shard (plan_io deserialisation). Traffic is a seeded
// stream of training jobs, each on a shard and zoo model, following the
// compile-once, execute-every-iteration pattern of bench_fig18_end_to_end:
// kCompile of each gradient bucket, a kExecute of the 64 MiB weight
// broadcast from rank 0, then kIterations iterations of one kExecute per
// bucket. Every kJobsPerRepair jobs a kRepair alternately degrades a cycling
// shard's GPU 0 -> 1 NVLink/NVSwitch route to half capacity (the fault
// bench_fig22a injects) and restores it; each half of that shard's round
// holds one job per zoo model on it, and the seed draws the rest. Blink
// shards replan everything on a health event, baselines replan surgically,
// and the cold recompiles and re-executions that follow stay in the mix.
// Exactly one request is in flight: one client thread, one service worker,
// serial planning.
#include <bit>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blink/baselines/backends.h"
#include "blink/baselines/nccl_like.h"
#include "blink/blink/communicator.h"
#include "blink/blink/plan_io.h"
#include "blink/common/rng.h"
#include "blink/dnn/models.h"
#include "blink/dnn/training.h"
#include "blink/serve/service.h"
#include "blink/sim/fabric.h"
#include "blink/topology/builders.h"
#include "blink/topology/discovery.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace blinkbench {
namespace {

namespace fs = std::filesystem;
using blink::CollectiveKind;
using blink::serve::FabricSpec;
using blink::serve::PlanService;
using blink::serve::RequestType;
using blink::serve::ServeRequest;
using blink::serve::ServeResponse;
using blink::serve::ServeStatus;

constexpr int kSetupReps = 5;
// Iterations per training job: bench_fig18_end_to_end's short training job.
constexpr int kIterations = 5;
// Jobs between two repairs. An assumption: with four buckets a job is 25
// requests, so a health event arrives every 800 requests. The cold requests
// that follow an event are then about 1.5 % of all requests, so the p95
// lies among warm requests; at 16 jobs they were about 3 % and the p95 sat
// on the steep edge between warm and cold requests.
constexpr int kJobsPerRepair = 32;
constexpr double kBroadcastBytes = 64.0 * 1024 * 1024;
constexpr double kDegradeFactor = 0.5;
// A traced run traces one pass in this many: a pass is ~19k requests, and
// tracing them all would keep millions of spans.
constexpr int kTracedEvery = 8;
// Period of the CPU moves (see CpuShuffle): about one request in a thousand
// follows a move.
constexpr int kShufflePeriodUs = 10000;

struct Shape {
  CollectiveKind kind;
  double bytes;
};

struct Shard {
  FabricSpec spec;
  blink::topo::Topology topo;
  blink::dnn::GpuGeneration gen = blink::dnn::GpuGeneration::kV100;
  std::string degrade_channel;  // first channel of the GPU 0 -> 1 route
};

std::vector<Shard> make_shards() {
  const std::vector<std::pair<std::string, std::vector<int>>> machines{
      {"dgx1p", {0, 1, 2, 3, 4}},
      {"dgx1v", {0, 1, 2, 3, 4, 5}},
      {"dgx2", {0, 1, 2, 3, 4, 5, 6, 7}}};
  std::vector<Shard> shards;
  for (const auto& [machine, gpus] : machines) {
    const blink::topo::Topology full =
        machine == "dgx1p"   ? blink::topo::make_dgx1p()
        : machine == "dgx1v" ? blink::topo::make_dgx1v()
                             : blink::topo::make_dgx2();
    for (const char* backend : {"blink", "nccl", "ring", "auto"}) {
      Shard shard;
      shard.spec = FabricSpec{machine, gpus, backend};
      shard.topo = blink::topo::induced_topology(full, gpus);
      if (machine == "dgx1p") shard.gen = blink::dnn::GpuGeneration::kP100;
      const blink::sim::Fabric fabric(shard.topo, blink::sim::FabricParams{});
      shard.degrade_channel =
          fabric.channel_name(fabric.nvlink_route(0, 0, 1).front());
      shards.push_back(std::move(shard));
    }
  }
  return shards;
}

// The weight broadcast, then all-reduce at every gradient-bucket size of the
// model zoo, model by model.
std::vector<Shape> make_shapes() {
  std::vector<Shape> shapes{{CollectiveKind::kBroadcast, kBroadcastBytes}};
  for (const auto& model : blink::dnn::model_zoo()) {
    for (const double f : model.bucket_fractions) {
      shapes.push_back({CollectiveKind::kAllReduce, model.param_bytes * f});
    }
  }
  return shapes;
}

ServeRequest request(const Shard& shard, RequestType type,
                     const Shape& shape = {CollectiveKind::kAllReduce, 0.0}) {
  ServeRequest r;
  r.tenant = "trainer";
  r.type = type;
  r.fabric = shard.spec;
  r.kind = shape.kind;
  r.bytes = shape.bytes;
  return r;
}

blink::serve::ServiceOptions service_options(const std::string& store_dir) {
  blink::serve::ServiceOptions options;
  options.num_workers = 1;
  options.planner_threads = 1;
  options.store_dir = store_dir;
  // Generous quotas: this workload measures serving, not admission.
  options.default_quota.compile_rate = 1e9;
  options.default_quota.compile_burst = 1e9;
  options.default_quota.max_in_flight = 1024;
  return options;
}

// An engine built the way the service builds a shard's, for the traced
// round's per-layer replays (the service's shard engines are private).
struct Mirror {
  std::unique_ptr<blink::CollectiveEngine> engine;
  blink::Communicator* blink = nullptr;
  int backend = 0;
};

Mirror build_mirror(const Shard& shard) {
  Mirror m;
  const auto& spec = shard.spec;
  if (spec.backend == "blink" || spec.backend == "auto") {
    blink::CommunicatorOptions options;
    options.planner_threads = 1;
    auto comm = std::make_unique<blink::Communicator>(shard.topo, options);
    m.blink = comm.get();
    if (spec.backend == "auto") {
      for (const char* name : {"nccl", "ring", "double_binary", "butterfly"}) {
        comm->register_backend(blink::baselines::make_baseline_backend(
            name, comm->topology(), comm->fabric(),
            blink::baselines::NcclOptions{}));
      }
      m.backend = blink::CollectiveEngine::kAutoBackend;
    }
    m.engine = std::move(comm);
  } else if (spec.backend == "nccl") {
    blink::baselines::NcclOptions options;
    options.planner_threads = 1;
    m.engine = std::make_unique<blink::baselines::NcclCommunicator>(
        shard.topo, options);
  } else {
    const blink::baselines::NcclOptions nccl;
    blink::EngineOptions options;
    options.planner_threads = 1;
    auto engine = std::make_unique<blink::CollectiveEngine>(
        shard.topo,
        blink::baselines::apply_persistent_kernel_model(nccl.fabric), options);
    engine->register_backend(blink::baselines::make_baseline_backend(
        spec.backend, engine->topology(), engine->fabric(), nccl));
    m.engine = std::move(engine);
  }
  return m;
}

int channel_id(const blink::sim::Fabric& fabric, const std::string& name) {
  for (int c = 0; c < fabric.num_channels(); ++c) {
    if (fabric.channel_name(c) == name) return c;
  }
  return -1;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Submits one request and polls for its response: the client never sleeps,
// so a request's latency holds one thread handoff (to the service worker)
// instead of two.
ServeResponse serve(PlanService& service, ServeRequest request) {
  auto future = service.submit(std::move(request));
  while (future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
  }
  return future.get();
}

}  // namespace

Outcome run_serve_repair(const Config& config) {
  Outcome out;
  Tracer& tr = tracer();
  // Two busy threads: the polling client and the service worker.
  // Requests take microseconds, so the threads move less often than in the
  // other workloads: a move costs the next request its warm caches, and
  // that must stay rarer than the p95 tail.
  const CpuShuffle shuffle(2, kShufflePeriodUs);
  const std::vector<Shard> shards = make_shards();
  const std::vector<Shape> shapes = make_shapes();
  const std::string store_dir = config.work_dir + "/plan-store";
  std::error_code ec;
  fs::remove_all(store_dir, ec);
  fs::create_directories(store_dir);

  // Fill the plan store (untimed): compile every shard x shape cold, then
  // let the service flush its caches on shutdown.
  {
    PlanService filler(service_options(store_dir));
    for (const Shard& shard : shards) {
      for (const Shape& shape : shapes) {
        const ServeResponse r =
            filler.handle(request(shard, RequestType::kExecute, shape));
        if (r.status != ServeStatus::kOk) {
          out.fail("serve_repair fill: " + r.message);
        }
      }
    }
  }
  double store_bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    store_bytes += static_cast<double>(entry.file_size());
  }

  // Set-up: start the daemon and warm-load every shard; median of
  // kSetupReps repetitions.
  std::unique_ptr<PlanService> service;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    const std::int64_t t0 = Tracer::now_ns();
    service = std::make_unique<PlanService>(service_options(store_dir));
    for (const Shard& shard : shards) {
      const ServeResponse r =
          serve(*service, request(shard, RequestType::kWarmLoad));
      if (r.status != ServeStatus::kOk || r.plans_touched == 0) {
        out.fail("serve_repair warm load: " + r.message);
      }
    }
    setups.push_back(seconds_since(t0));
  }
  out.setup_s = median(setups);

  // Traced runs mirror every shard on an engine of their own, warm-loaded
  // from the same store, to time the layers behind each request.
  std::vector<Mirror> mirrors;
  if (config.trace) {
    tr.set_enabled(true);
    for (const Shard& shard : shards) {
      Mirror m = build_mirror(shard);
      const std::string path =
          blink::plan_store_file(store_dir, m.engine->fabric_fingerprint());
      Scope span("plan_io.import");
      out.counters.plans_imported +=
          static_cast<double>(m.engine->import_plans(path));
      out.counters.imports += 1;
      mirrors.push_back(std::move(m));
    }
    out.counters.store_bytes = store_bytes;
    tr.set_enabled(false);
  }

  // Healthy results per (shard, shape) and whether a shape was served since
  // the shard's last warm-load or repair (auto shards re-run their bake-off
  // on the first request after either).
  const std::size_t n_shapes = shapes.size();
  std::vector<std::uint64_t> healthy(shards.size() * n_shapes, 0);
  std::vector<bool> have_healthy(shards.size() * n_shapes, false);
  std::vector<bool> seen(shards.size() * n_shapes, false);
  std::vector<bool> degraded(shards.size(), false);

  auto check = [&](std::size_t s, std::size_t k, RequestType type,
                   const ServeResponse& r) {
    const std::size_t slot = s * n_shapes + k;
    bool ok = r.status == ServeStatus::kOk;
    const bool auto_shard = shards[s].spec.backend == "auto";
    if (ok && (!auto_shard || seen[slot]) && !r.warm_hit) ok = false;
    seen[slot] = true;
    if (ok && type == RequestType::kExecute && !degraded[s]) {
      if (!have_healthy[slot]) {
        healthy[slot] = bits(r.result.seconds);
        have_healthy[slot] = true;
      } else if (healthy[slot] != bits(r.result.seconds)) {
        ok = false;
      }
    }
    if (!ok) {
      out.fail("serve_repair: " + shards[s].spec.machine + "/" +
               shards[s].spec.backend + " request failed a check: " +
               blink::serve::to_string(r.status) + " " + r.message);
    }
  };

  // The traffic: one request sequence per shard's round, drawn once from
  // the seed. Each round degrades its shard's channel halfway through and
  // restores it at the end. Every pass replays the same rounds, so each op
  // position repeats the same request in the same service state. Each half
  // of a round holds one job per zoo model on the round's own shard, so
  // every shape the shard caches is requested both before and after each of
  // its health events: every plan an event drops is recompiled exactly once
  // per pass, whatever the seed, and each event finds the same plans
  // cached. The seed draws the shard and model of the other jobs and the
  // order of all of them.
  struct Traffic {
    std::size_t shard = 0;
    std::size_t shape = 0;
    RequestType type = RequestType::kExecute;
  };
  const auto zoo = blink::dnn::model_zoo();
  blink::Rng rng(config.seed);
  std::vector<std::vector<Traffic>> sequences(shards.size());
  std::vector<std::size_t> halves;  // where each round's degrade comes
  for (std::size_t round = 0; round < shards.size(); ++round) {
    auto& sequence = sequences[round];
    std::vector<std::pair<std::size_t, std::size_t>> jobs;  // shard, model
    for (int half = 0; half < 2; ++half) {
      std::vector<std::pair<std::size_t, std::size_t>> drawn;
      for (std::size_t model = 0; model < zoo.size(); ++model) {
        drawn.emplace_back(round, model);
      }
      while (drawn.size() < static_cast<std::size_t>(kJobsPerRepair)) {
        const std::size_t shard = rng.next_below(shards.size());
        drawn.emplace_back(shard, rng.next_below(zoo.size()));
      }
      rng.shuffle(drawn);
      jobs.insert(jobs.end(), drawn.begin(), drawn.end());
    }
    for (std::size_t job = 0; job < jobs.size(); ++job) {
      if (job == static_cast<std::size_t>(kJobsPerRepair)) {
        halves.push_back(sequence.size());
      }
      const auto [shard, model] = jobs[job];
      // The model's buckets follow the broadcast and earlier models' buckets.
      std::vector<std::size_t> buckets;
      std::size_t first = 1;
      for (std::size_t m = 0; m < model; ++m) {
        first += zoo[m].bucket_fractions.size();
      }
      for (std::size_t b = 0; b < zoo[model].bucket_fractions.size(); ++b) {
        buckets.push_back(first + b);
      }
      for (const std::size_t k : buckets) {
        sequence.push_back({shard, k, RequestType::kCompile});
      }
      sequence.push_back({shard, 0, RequestType::kExecute});
      for (int it = 0; it < kIterations; ++it) {
        for (const std::size_t k : buckets) {
          sequence.push_back({shard, k, RequestType::kExecute});
        }
      }
    }
  }
  double warm_serve_s = 0.0, warm_serve_n = 0.0;
  double warm_lookup_s = 0.0;

  // Degrades shard |s|'s round channel, or restores the shard.
  auto repair = [&](std::size_t s, bool degrade, bool traced, int position) {
    const Shard& shard = shards[s];
    ServeRequest r = request(shard, RequestType::kRepair);
    if (degrade) {
      r.event = "degrade_link";
      r.channel = shard.degrade_channel;
      r.factor = kDegradeFactor;
    } else {
      r.event = "restore";
    }
    ++out.attempted;
    const std::int64_t t0 = Tracer::now_ns();
    ServeResponse response;
    {
      Scope op("op");
      Scope span("serve.repair");
      response = serve(*service, r);
    }
    const double wall = seconds_since(t0);
    out.repairs.push_back({wall, position, true});
    if (!traced) out.ops.push_back({wall, position, true});
    if (response.status != ServeStatus::kOk) {
      out.fail("serve_repair: repair failed: " + response.message);
    }
    degraded[s] = degrade;
    for (std::size_t k = 0; k < n_shapes; ++k) seen[s * n_shapes + k] = false;
    if (!traced) return;
    // Mirror the event and replay the TreeGen runs the replan needed.
    Mirror& m = mirrors[s];
    blink::sim::HealthEvent event;
    if (degrade) {
      event.kind = blink::sim::HealthEventKind::kDegradeLink;
      event.channel = channel_id(m.engine->fabric(), r.channel);
      event.factor = r.factor;
    }
    blink::RepairReport report;
    {
      Scope span("engine.repair");
      report = m.engine->repair_plans(event);
    }
    add_repair(report, out.counters);
    if (m.blink == nullptr || shard.topo.has_nvswitch) return;
    std::vector<const blink::TreeSet*> sets;
    for (const Shape& shape : shapes) {
      const auto plan = m.engine->compile(shape.kind, shape.bytes, -1, 0);
      for (const auto& set : plan->tree_sets()) {
        bool dup = false;
        for (const auto* t : sets) dup = dup || t == set.get();
        if (!dup) sets.push_back(set.get());
      }
    }
    for (const auto* set : sets) {
      blink::TreeGenOptions options;
      options.link = set->link;
      options.bidirectional = set->bidirectional;
      {
        Scope span("treegen.build");
        blink::generate_trees(m.blink->topology(), set->root, options);
      }
      out.counters.treegen_builds += 1;
      replay_packing(*set, 1, out.counters);
      if (!within_edmonds_bound(*set)) {
        out.fail("serve_repair: tree set above its Edmonds bound");
      }
    }
  };

  // Timed loop: a pass is one round per shard; a round is kJobsPerRepair
  // jobs, the repair degrading the shard's channel, kJobsPerRepair more and
  // the restoring repair. A traced run traces every kTracedEvery-th pass,
  // starting with the second.
  const std::int64_t loop_start = Tracer::now_ns();
  const std::int64_t deadline =
      loop_start + static_cast<std::int64_t>(config.seconds * 1e9);
  std::int64_t untraced_ns = 0;
  std::int64_t op = 0;
  for (int pass = 0;; ++pass) {
    if (pass >= (config.trace ? 2 : 1) && Tracer::now_ns() >= deadline) break;
    const bool traced = config.trace && pass % kTracedEvery == 1;
    tr.set_enabled(traced);
    const std::int64_t pass_start = Tracer::now_ns();
    int position = 0;
    for (std::size_t round = 0; round < shards.size(); ++round) {
      for (std::size_t i = 0; i < sequences[round].size();
           ++i, ++op, ++position) {
        if (i == halves[round]) {
          tr.set_op(op++);
          repair(round, true, traced, position++);
        }
        tr.set_op(op);
        const Traffic& t = sequences[round][i];
        const Shape& shape = shapes[t.shape];
        ++out.attempted;
        const std::int64_t t0 = Tracer::now_ns();
        ServeResponse r;
        {
          Scope op_span("op");
          Scope span(t.type == RequestType::kExecute ? "serve.execute"
                                                     : "serve.compile");
          r = serve(*service, request(shards[t.shard], t.type, shape));
        }
        const double wall = seconds_since(t0);
        out.add_op(traced, wall, position);
        check(t.shard, t.shape, t.type, r);
        if (!traced) continue;
        Mirror& m = mirrors[t.shard];
        const bool mirror_warm =
            m.engine->has_cached_plan(shape.kind, shape.bytes, -1, m.backend);
        std::shared_ptr<const blink::CollectivePlan> plan;
        const std::int64_t l0 = Tracer::now_ns();
        {
          Scope span("engine.lookup");
          plan = m.engine->compile(shape.kind, shape.bytes, -1, m.backend);
        }
        if (r.warm_hit && mirror_warm && t.type == RequestType::kCompile) {
          warm_serve_s += wall;
          warm_lookup_s += seconds_since(l0);
          warm_serve_n += 1;
        }
        if (t.type == RequestType::kExecute && !plan->cached_result()) {
          Scope span("sim.execute");
          m.engine->execute(*plan);
          out.counters.executes += 1;
          out.counters.execute_ops += plan->num_ops();
        }
      }
      tr.set_op(op++);
      repair(round, false, traced, position++);
    }
    if (!traced) untraced_ns += Tracer::now_ns() - pass_start;
    tr.set_enabled(false);
  }
  tr.set_op(-1);
  out.loop_seconds = config.trace ? static_cast<double>(untraced_ns) * 1e-9
                                  : seconds_since(loop_start);

  // Post-loop: execute every shard x shape once more. Every round ended on
  // a restore, so the results must match the healthy ones recorded in the
  // loop, and they make the simulated metrics.
  Digest digest;
  std::vector<double> algbw;
  std::vector<double> train;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::map<std::uint64_t, double> seconds_by_bytes;
    for (std::size_t k = 0; k < n_shapes; ++k) {
      const ServeResponse r =
          service->handle(request(shards[s], RequestType::kExecute, shapes[k]));
      check(s, k, RequestType::kExecute, r);
      digest.add(r.result.seconds);
      algbw.push_back(r.result.algorithm_bw / 1e9);
      if (shapes[k].kind == CollectiveKind::kAllReduce) {
        seconds_by_bytes[bits(shapes[k].bytes)] = r.result.seconds;
      }
    }
    if (shards[s].spec.backend != "blink") continue;
    for (const auto& model : blink::dnn::model_zoo()) {
      blink::dnn::TrainingOptions options;
      options.num_gpus = shards[s].topo.num_gpus;
      train.push_back(
          blink::dnn::simulate_iteration(
              model, shards[s].gen,
              [&](double bytes) { return seconds_by_bytes.at(bits(bytes)); },
              options)
              .images_per_second);
    }
  }
  out.sim_digest = digest.value();
  out.sim_algbw_gbps = geo_mean(algbw);
  out.sim_train_img_per_s = geo_mean(train);

  const auto stats = service->stats();
  out.counters.cache_hits = static_cast<double>(stats.cache_hits);
  out.counters.cache_misses = static_cast<double>(stats.cache_misses);
  out.counters.cache_ops = static_cast<double>(out.attempted);
  if (warm_serve_n > 0) {
    out.layer["serve.warm_us"] = warm_serve_s / warm_serve_n * 1e6;
    out.layer["engine.warm_compile_us"] = warm_lookup_s / warm_serve_n * 1e6;
    out.layer["serve.overhead_us"] =
        (warm_serve_s - warm_lookup_s) / warm_serve_n * 1e6;
  }
  service.reset();
  fs::remove_all(store_dir, ec);
  return out;
}

}  // namespace blinkbench
