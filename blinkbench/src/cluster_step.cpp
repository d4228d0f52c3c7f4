// cluster_step: data-parallel training steps on a 16-GPU fat-tree.
//
// Two racks of two 4-GPU NVSwitch boxes, 5 GB/s NICs at 2:1 rack
// oversubscription. Set-up compiles every gradient bucket of three model zoo
// CNNs cold (planning serial) and simulates each one solo. One op is one
// training step: the step launches one model's buckets as a single grouped
// launch through CollectiveEngine::run (ncclGroupStart/End semantics), so a
// step is four warm plan lookups plus one sim::execute_group, which is never
// memoized. The models are cycled in a seeded order. The client thread
// moves from CPU to CPU every millisecond (see CpuShuffle). Every few
// rounds, with the loop clock stopped, a second communicator of the same
// cluster has server 0's NIC halved and restored to time plan repair; the
// training communicator's plans are never touched.
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "blink/blink/multiserver.h"
#include "blink/common/rng.h"
#include "blink/dnn/models.h"
#include "blink/dnn/training.h"
#include "blink/sim/executor.h"
#include "blink/topology/zoo.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace blinkbench {
namespace {

using blink::CollectiveKind;
using blink::CollectiveRequest;
using blink::CollectiveResult;

constexpr int kSetupReps = 7;
constexpr int kRepairEvery = 8;  // rounds between repair probes

struct Step {
  std::vector<CollectiveRequest> requests;  // the model's gradient buckets
  std::vector<std::shared_ptr<const blink::CollectivePlan>> plans;
  std::vector<double> solo_seconds;         // each bucket simulated alone
};

struct Trainer {
  std::unique_ptr<blink::ClusterCommunicator> comm;
  std::vector<blink::dnn::ModelSpec> models;
  std::vector<Step> steps;  // one per model
};

// Builds the communicator, compiles every bucket and simulates it solo.
Trainer set_up(const blink::topo::zoo::ZooCluster& cluster,
               LayerCounters* counters) {
  Trainer t;
  // Three models, so the median step falls inside one model's steps rather
  // than on the boundary between two (ResNet18, the lightest, is left out).
  t.models = {blink::dnn::alexnet(), blink::dnn::resnet50(),
              blink::dnn::vgg16()};
  blink::ClusterOptions options;
  options.fabric = cluster.fabric;
  options.engine.planner_threads = 1;
  {
    Scope span("engine.build");
    t.comm = std::make_unique<blink::ClusterCommunicator>(cluster.servers,
                                                          options);
  }
  {
    Scope span("treegen.build");
    t.comm->partition_shares();
  }
  std::vector<std::shared_ptr<const blink::CollectivePlan>> plans;
  for (const auto& model : t.models) {
    Step step;
    for (const double f : model.bucket_fractions) {
      step.requests.push_back(
          {CollectiveKind::kAllReduce, model.param_bytes * f, -1, 0});
    }
    {
      Scope span("multiserver.compile");
      for (const auto& req : step.requests) {
        plans.push_back(t.comm->compile(req.kind, req.bytes, req.root));
      }
    }
    step.plans.assign(plans.end() - static_cast<std::ptrdiff_t>(
                                         step.requests.size()),
                      plans.end());
    Scope span("sim.execute");
    for (const auto& plan : step.plans) {
      step.solo_seconds.push_back(t.comm->execute(*plan).seconds);
    }
    t.steps.push_back(std::move(step));
  }
  if (counters != nullptr) {
    const auto& backend =
        dynamic_cast<const blink::ClusterBackend&>(t.comm->backend(0));
    counters->treegen_builds += static_cast<double>(backend.tree_builds());
    counters->cluster_jobs += 1;
    counters->cluster_tree_builds += static_cast<double>(backend.tree_builds());
    std::vector<const blink::TreeSet*> seen;
    for (const auto& plan : plans) {
      counters->executes += 1;
      counters->execute_ops += plan->num_ops();
      for (int s = 0; s < t.comm->num_servers(); ++s) {
        counters->nic_egress_bytes +=
            blink::nic_egress_bytes(t.comm->fabric(), plan->program(), s);
      }
      for (const auto& set : plan->tree_sets()) {
        bool dup = false;
        for (const auto* s : seen) dup = dup || s == set.get();
        if (dup) continue;
        seen.push_back(set.get());
        replay_packing(*set, 1, *counters);
      }
    }
  }
  return t;
}

// One step decomposed into its layers for the traced rounds: the same plan
// lookups and grouped simulation CollectiveEngine::run performs.
std::vector<CollectiveResult> traced_step(blink::ClusterCommunicator& comm,
                                          const Step& step,
                                          LayerCounters& counters) {
  std::vector<std::shared_ptr<const blink::CollectivePlan>> plans;
  {
    Scope span("engine.lookup");
    plans = comm.compile_batch(step.requests);
  }
  std::vector<const blink::sim::Program*> programs;
  for (const auto& plan : plans) programs.push_back(&plan->program());
  blink::sim::GroupRunResult group;
  {
    Scope span("sim.execute_group");
    group = blink::sim::execute_group(comm.fabric(), programs);
  }
  std::vector<CollectiveResult> results;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    CollectiveResult r = plans[i]->meta();
    r.seconds = group.makespan[i];
    r.algorithm_bw = r.seconds > 0.0 ? r.bytes / r.seconds : 0.0;
    results.push_back(r);
    counters.group_ops += plans[i]->num_ops();
  }
  counters.group_launches += 1;
  return results;
}

}  // namespace

Outcome run_cluster_step(const Config& config) {
  Outcome out;
  Tracer& tr = tracer();
  const auto cluster =
      blink::topo::zoo::make_fat_tree_cluster(2, 2, 4, 5e9, 2.0);

  // The client is the only busy thread.
  const CpuShuffle shuffle(1);

  // Set-up, repeated; the last repetition's communicator serves the loop
  // (traced in a traced run, so the cold compiles show per layer).
  Trainer trainer;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    tr.set_enabled(config.trace && last);
    const std::int64_t t0 = Tracer::now_ns();
    trainer = set_up(cluster, config.trace && last ? &out.counters : nullptr);
    setups.push_back(seconds_since(t0));
  }
  tr.set_enabled(false);
  out.setup_s = median(setups);

  // Seeded model order; the loop cycles it.
  std::vector<int> order;
  for (int m = 0; m < static_cast<int>(trainer.models.size()); ++m) {
    order.push_back(m);
  }
  blink::Rng rng(config.seed);
  rng.shuffle(order);
  const int cycle = static_cast<int>(order.size());

  Digest digest;
  std::vector<double> algbw, train;
  for (std::size_t m = 0; m < trainer.steps.size(); ++m) {
    const Step& step = trainer.steps[m];
    for (std::size_t b = 0; b < step.solo_seconds.size(); ++b) {
      digest.add(step.solo_seconds[b]);
      algbw.push_back(step.requests[b].bytes / step.solo_seconds[b] / 1e9);
    }
    auto all_reduce = [&](double bytes) {
      for (std::size_t b = 0; b < step.requests.size(); ++b) {
        if (step.requests[b].bytes == bytes) return step.solo_seconds[b];
      }
      return 0.0;
    };
    blink::dnn::TrainingOptions options;
    options.num_gpus = trainer.comm->num_gpus();
    train.push_back(blink::dnn::simulate_iteration(
                        trainer.models[m], blink::dnn::GpuGeneration::kV100,
                        all_reduce, options)
                        .images_per_second);
  }

  // Repair probe (every workload prints repair_ms.p50): a second
  // communicator, set up like the first, whose plans server 0's NIC egress
  // (which every all-reduce crosses) invalidates. Every kRepairEvery rounds,
  // with the loop clock stopped, the NIC is halved and restored; afterwards
  // every bucket must simulate solo bit-identically to set-up. The training
  // communicator's plans are never touched.
  const Trainer prober = set_up(cluster, nullptr);
  int nic_channel = -1;
  const auto& fabric = prober.comm->fabric();
  for (int c = 0; c < fabric.num_channels() && nic_channel < 0; ++c) {
    if (fabric.channel_name(c).find("nic.out") != std::string::npos) {
      nic_channel = c;
    }
  }
  std::vector<std::shared_ptr<const blink::CollectivePlan>> probe_plans;
  std::vector<double> probe_healthy;
  for (const Step& step : prober.steps) {
    probe_plans.insert(probe_plans.end(), step.plans.begin(), step.plans.end());
    probe_healthy.insert(probe_healthy.end(), step.solo_seconds.begin(),
                         step.solo_seconds.end());
  }
  std::int64_t probe_ns = 0;
  auto probe = [&]() {
    const std::int64_t p0 = Tracer::now_ns();
    tr.set_op(-1);
    tr.set_enabled(config.trace);
    try {
      repair_probe(*prober.comm, nic_channel, probe_plans, probe_healthy, 1, 0,
                   out);
    } catch (const std::exception& e) {
      out.fail(std::string("cluster_step repair probe: ") + e.what());
    }
    tr.set_enabled(false);
    probe_ns += Tracer::now_ns() - p0;
  };

  // Timed loop. Rounds of two model cycles; a traced run alternates
  // untraced and traced rounds.
  const int round = 2 * cycle;
  std::vector<std::vector<CollectiveResult>> first(trainer.steps.size());
  const std::int64_t loop_start = Tracer::now_ns();
  const std::int64_t deadline =
      loop_start + static_cast<std::int64_t>(config.seconds * 1e9);
  std::int64_t untraced_ns = 0;
  for (std::int64_t op = 0;; ++op) {
    const std::int64_t r = op / round;
    if (op % round == 0 && r % kRepairEvery == 1) probe();
    if (r >= (config.trace ? 2 : 1) && op % round == 0 &&
        Tracer::now_ns() >= deadline) {
      break;
    }
    const bool traced = config.trace && r % 2 == 1;
    tr.set_enabled(traced);
    tr.set_op(op);
    const auto m = static_cast<std::size_t>(order[op % cycle]);
    const Step& step = trainer.steps[m];
    ++out.attempted;
    const std::int64_t t0 = Tracer::now_ns();
    std::vector<CollectiveResult> results;
    try {
      Scope span("op");
      results = traced ? traced_step(*trainer.comm, step, out.counters)
                       : trainer.comm->run(step.requests);
    } catch (const std::exception& e) {
      tr.set_enabled(false);
      out.fail(std::string("cluster_step op: ") + e.what());
      continue;
    }
    const double wall = seconds_since(t0);
    out.add_op(traced, wall, static_cast<int>(op % cycle));
    if (!traced) untraced_ns += static_cast<std::int64_t>(wall * 1e9);
    tr.set_enabled(false);

    // Output checks: contention never speeds a member up, and every step
    // of one model repeats bit for bit.
    bool ok = results.size() == step.solo_seconds.size();
    for (std::size_t b = 0; ok && b < results.size(); ++b) {
      ok = results[b].seconds >= step.solo_seconds[b] * (1.0 - 1e-12);
    }
    if (first[m].empty()) {
      first[m] = results;
    } else {
      for (std::size_t b = 0; ok && b < results.size(); ++b) {
        ok = std::bit_cast<std::uint64_t>(results[b].seconds) ==
             std::bit_cast<std::uint64_t>(first[m][b].seconds);
      }
    }
    if (!ok) out.fail("cluster_step: output check failed on model " +
                      trainer.models[m].name);
  }
  tr.set_op(-1);
  out.loop_seconds =
      config.trace ? static_cast<double>(untraced_ns) * 1e-9
                   : seconds_since(loop_start) -
                         static_cast<double>(probe_ns) * 1e-9;
  for (const auto& results : first) {
    for (const auto& r : results) digest.add(r.seconds);
  }
  out.sim_digest = digest.value();
  out.sim_algbw_gbps = geo_mean(algbw);
  out.sim_train_img_per_s = geo_mean(train);
  if (config.trace) {
    add_cache_stats(*trainer.comm, out.counters);
    out.counters.cache_ops = static_cast<double>(out.attempted);
  }

  return out;
}

}  // namespace blinkbench
