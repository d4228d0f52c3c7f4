// alloc_churn: the job-start path on freshly allocated GPU fragments.
//
// A seeded stream of allocations arrives the way a cluster scheduler hands
// them out: three in four are single-server fragments (3-8 GPUs of a DGX-1P,
// DGX-1V or DGX-2, induced with topo::induced_topology), one in four spans
// 2-4 servers of a two-rack fat-tree of 4-GPU NVSwitch boxes. One op builds
// the job's communicator, cold-compiles its collectives (all-reduce at the
// model's three gradient-bucket sizes and a 64 MiB broadcast from rank 0)
// and executes them. Planner width is 2. Every op is cold: communicators are
// never reused, so the plan cache and the serving layer are bypassed. After
// every pass, with the loop clock stopped, a repair probe halves and
// restores one channel on each of a few kept job communicators.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "blink/blink/communicator.h"
#include "blink/blink/multiserver.h"
#include "blink/common/rng.h"
#include "blink/dnn/models.h"
#include "blink/dnn/training.h"
#include "blink/topology/builders.h"
#include "blink/topology/discovery.h"
#include "blink/topology/zoo.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace blinkbench {
namespace {

using blink::CollectiveKind;
using blink::CollectivePlan;
using blink::CollectiveResult;
using PlanPtr = std::shared_ptr<const CollectivePlan>;

constexpr int kStreamLength = 72;   // allocations per pass of the stream
constexpr int kRepairJobs = 12;     // jobs the repair probe keeps
constexpr int kPlannerThreads = 2;
constexpr int kSetupReps = 9;
constexpr double kBroadcastBytes = 64.0 * 1024 * 1024;

struct Job {
  bool multi = false;
  int machine = 0;                // single-server: index into machines
  std::vector<int> gpus;          // single-server: GPU ids, in local order
  std::vector<int> servers;       // multi-server: cluster server indices
  std::vector<int> server_gpus;   // multi-server: GPUs taken on each server
  blink::dnn::ModelSpec model;    // gradients fused into three buckets
};

// Frameworks fuse gradients into a few buckets; these jobs use three.
void fuse_buckets(blink::dnn::ModelSpec& model) {
  auto& buckets = model.bucket_fractions;
  buckets[2] += buckets[3];
  buckets.pop_back();
}

struct Inputs {
  std::vector<blink::topo::Topology> machines;  // DGX-1P, DGX-1V, DGX-2
  blink::topo::zoo::ZooCluster cluster;
  std::vector<Job> jobs;
};

std::vector<int> pick(blink::Rng& rng, int n, int k) {
  std::vector<int> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  rng.shuffle(ids);
  ids.resize(static_cast<std::size_t>(k));
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Relabelings of |t|'s GPUs that preserve every NVLink lane count and the
// PCIe switch and socket grouping: allocations related by one of them have
// identical topologies, so they cost the planner the same.
std::vector<std::vector<int>> automorphisms(const blink::topo::Topology& t) {
  const int n = t.num_gpus;
  const auto& plx = t.pcie.plx_of_gpu;
  const auto& cpu = t.pcie.cpu_of_plx;
  auto socket = [&](int g) { return cpu[static_cast<std::size_t>(plx[g])]; };
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<int>> out;
  do {
    bool same = true;
    for (int a = 0; same && a < n; ++a) {
      for (int b = a + 1; same && b < n; ++b) {
        const int pa = p[static_cast<std::size_t>(a)];
        const int pb = p[static_cast<std::size_t>(b)];
        same = t.lanes_between(a, b) == t.lanes_between(pa, pb) &&
               (plx[a] == plx[b]) == (plx[pa] == plx[pb]) &&
               (socket(a) == socket(b)) == (socket(pa) == socket(pb));
      }
    }
    if (same) out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

// The |r|-th of three fixed k-GPU subsets of an n-GPU machine, spread over
// the lexicographic enumeration so they cover different subset shapes.
std::vector<int> canonical_subset(int n, int k, int r) {
  std::vector<std::vector<int>> all;
  std::vector<int> mask(static_cast<std::size_t>(n), 0);
  std::fill(mask.begin(), mask.begin() + k, 1);
  do {
    std::vector<int> ids;
    for (int i = 0; i < n; ++i) {
      if (mask[static_cast<std::size_t>(i)] != 0) ids.push_back(i);
    }
    all.push_back(ids);
  } while (std::prev_permutation(mask.begin(), mask.end()));
  return all[(2 * static_cast<std::size_t>(r) + 1) * all.size() / 6];
}

// The stream is stratified so every seed carries the same job mix: each
// block of four holds three single-server jobs walking the (machine, GPU
// count 3-8) grid three times and one multi-server job walking the (2-4
// servers, 2-4 GPUs each) grid twice, and models rotate through the zoo.
// The seed draws which GPUs and servers each allocation gets, among
// allocations of the same shape: DGX-1 jobs map a fixed subset through a
// random automorphism of the machine, keeping the subset's GPU order so the
// induced topology is the same graph under the same local ids; DGX-2 and
// fat-tree jobs draw GPUs and servers freely (their boxes are symmetric).
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.machines = {blink::topo::make_dgx1p(), blink::topo::make_dgx1v(),
                 blink::topo::make_dgx2()};
  in.cluster = blink::topo::zoo::make_fat_tree_cluster(2, 2, 4, 5e9, 2.0);
  const std::vector<std::vector<std::vector<int>>> relabel{
      automorphisms(in.machines[0]), automorphisms(in.machines[1])};
  const auto zoo = blink::dnn::model_zoo();
  blink::Rng rng(seed);
  for (int i = 0; i < kStreamLength; ++i) {
    const int block = i / 4;
    Job job;
    job.multi = i % 4 == 3;
    if (job.multi) {
      const int cell = block % 9;
      job.servers = pick(rng, static_cast<int>(in.cluster.servers.size()),
                         2 + cell / 3);
      job.server_gpus = pick(rng, 4, 2 + cell % 3);
    } else {
      const int slot = 3 * block + i % 4;
      const int cell = slot % 18;
      job.machine = cell / 6;
      const int k = 3 + cell % 6;
      const auto& machine = in.machines[static_cast<std::size_t>(job.machine)];
      if (job.machine == 2) {
        job.gpus = pick(rng, machine.num_gpus, k);
      } else {
        const auto& group = relabel[static_cast<std::size_t>(job.machine)];
        const auto& perm = group[rng.next_below(group.size())];
        for (const int g : canonical_subset(machine.num_gpus, k, slot / 18)) {
          job.gpus.push_back(perm[static_cast<std::size_t>(g)]);
        }
      }
    }
    job.model = zoo[static_cast<std::size_t>(i + block) % zoo.size()];
    fuse_buckets(job.model);
    in.jobs.push_back(std::move(job));
  }
  return in;
}

// Seed-independent jobs the set-up runs cold to warm the process.
std::vector<Job> reference_jobs() {
  std::vector<Job> jobs(4);
  jobs[0].machine = 0;
  jobs[0].gpus = {0, 1, 2, 3};
  jobs[1].machine = 1;
  jobs[1].gpus = {0, 1, 2, 3, 4, 5};
  jobs[2].machine = 2;
  jobs[2].gpus = {0, 1, 2, 3, 4, 5, 6, 7};
  jobs[3].multi = true;
  jobs[3].servers = {0, 2};
  jobs[3].server_gpus = {0, 1, 2, 3};
  for (Job& job : jobs) {
    job.model = blink::dnn::resnet50();
    fuse_buckets(job.model);
  }
  return jobs;
}

std::vector<double> bucket_bytes(const Job& job) {
  std::vector<double> out;
  for (const double f : job.model.bucket_fractions) {
    out.push_back(job.model.param_bytes * f);
  }
  return out;
}

// One job's communicator: single-server Blink or the three-phase cluster.
struct JobEngine {
  std::unique_ptr<blink::CollectiveEngine> engine;
  blink::Communicator* single = nullptr;
  blink::ClusterCommunicator* cluster = nullptr;
  int all_reduce_root = -1;
  blink::dnn::GpuGeneration gen = blink::dnn::GpuGeneration::kV100;
};

JobEngine build_engine(const Inputs& in, const Job& job,
                       int planner_threads) {
  JobEngine out;
  if (!job.multi) {
    const auto& machine = in.machines[static_cast<std::size_t>(job.machine)];
    blink::topo::Topology topo;
    {
      Scope span("topology.induce");
      topo = blink::topo::induced_topology(machine, job.gpus);
    }
    if (machine.kind == blink::topo::ServerKind::kDGX1P) {
      out.gen = blink::dnn::GpuGeneration::kP100;
    }
    Scope span("engine.build");
    blink::CommunicatorOptions options;
    options.planner_threads = planner_threads;
    auto comm = std::make_unique<blink::Communicator>(std::move(topo), options);
    out.single = comm.get();
    out.engine = std::move(comm);
    return out;
  }
  std::vector<blink::topo::Topology> servers;
  blink::ClusterOptions options;
  options.fabric = in.cluster.fabric;
  options.fabric.nic_bw_per_server.clear();
  {
    Scope span("topology.induce");
    for (const int s : job.servers) {
      servers.push_back(blink::topo::induced_topology(
          in.cluster.servers[static_cast<std::size_t>(s)], job.server_gpus));
      if (!in.cluster.fabric.nic_bw_per_server.empty()) {
        options.fabric.nic_bw_per_server.push_back(
            in.cluster.fabric.nic_bw_per_server[static_cast<std::size_t>(s)]);
      }
    }
  }
  Scope span("engine.build");
  options.engine.planner_threads = planner_threads;
  auto comm = std::make_unique<blink::ClusterCommunicator>(std::move(servers),
                                                           options);
  out.cluster = comm.get();
  out.engine = std::move(comm);
  return out;
}

// Runs TreeGen for every tree set the job's compiles will read, so the
// compile spans time lowering alone. Returns the number of sets built.
int build_trees(JobEngine& je) {
  Scope span("treegen.build");
  if (je.single != nullptr) {
    if (je.single->topology().has_nvswitch) return 0;  // one-hop trees
    je.all_reduce_root = je.single->best_root();
    je.single->bidir_tree_set(je.all_reduce_root);
    return je.single->topology().num_gpus + 1;
  }
  je.cluster->partition_shares();
  return static_cast<int>(
      dynamic_cast<const blink::ClusterBackend&>(je.engine->backend(0))
          .tree_builds());
}

std::vector<PlanPtr> compile_job(JobEngine& je, const Job& job) {
  Scope span(je.single != nullptr ? "codegen.compile" : "multiserver.compile");
  std::vector<PlanPtr> plans;
  for (const double bytes : bucket_bytes(job)) {
    plans.push_back(je.engine->compile(CollectiveKind::kAllReduce, bytes));
  }
  plans.push_back(
      je.engine->compile(CollectiveKind::kBroadcast, kBroadcastBytes, 0));
  return plans;
}

std::vector<CollectiveResult> execute_job(JobEngine& je,
                                          const std::vector<PlanPtr>& plans) {
  Scope span("sim.execute");
  std::vector<CollectiveResult> results;
  for (const auto& plan : plans) results.push_back(je.engine->execute(*plan));
  return results;
}

double train_images_per_s(const JobEngine& je, const Job& job,
                          const std::vector<CollectiveResult>& results) {
  Scope span("dnn.iteration");
  const auto sizes = bucket_bytes(job);
  auto all_reduce = [&](double bytes) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (sizes[i] == bytes) return results[i].seconds;
    }
    throw std::logic_error("no all-reduce compiled for a bucket");
  };
  blink::dnn::TrainingOptions options;
  options.num_gpus = je.engine->num_gpus();
  return blink::dnn::simulate_iteration(job.model, je.gen, all_reduce, options)
      .images_per_second;
}

// The tree sets the job's plans were built from (single-server: every root's
// set best_root() built plus the all-reduce set).
std::vector<const blink::TreeSet*> job_tree_sets(
    JobEngine& je, const std::vector<PlanPtr>& plans) {
  std::vector<const blink::TreeSet*> sets;
  if (je.single != nullptr) {
    if (je.single->topology().has_nvswitch) return sets;
    for (int r = 0; r < je.single->topology().num_gpus; ++r) {
      sets.push_back(&je.single->tree_set(r));
    }
    sets.push_back(&je.single->bidir_tree_set(je.all_reduce_root));
    return sets;
  }
  for (const auto& plan : plans) {
    for (const auto& set : plan->tree_sets()) {
      bool seen = false;
      for (const auto* s : sets) seen = seen || s == set.get();
      if (!seen) sets.push_back(set.get());
    }
  }
  return sets;
}

// A job kept for the repair probe, with its plans and healthy timings.
struct Probe {
  JobEngine je;
  std::vector<PlanPtr> plans;
  std::vector<double> healthy;
};

bool same_timings(const std::vector<CollectiveResult>& a,
                  const std::vector<CollectiveResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].seconds) !=
        std::bit_cast<std::uint64_t>(b[i].seconds)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_alloc_churn(const Config& config) {
  Outcome out;
  Tracer& tr = tracer();
  // Planning fans out to kPlannerThreads threads at most (the client
  // included).
  const CpuShuffle shuffle(kPlannerThreads);

  // Set-up: draw the allocation stream and warm the process with one cold
  // reference job per server kind, kSetupReps times; setup_s is the
  // median.
  Inputs in;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = Tracer::now_ns();
    in = make_inputs(config.seed);
    for (const Job& job : reference_jobs()) {
      JobEngine je = build_engine(in, job, kPlannerThreads);
      build_trees(je);
      execute_job(je, compile_job(je, job));
    }
    setups.push_back(seconds_since(t0));
  }
  out.setup_s = median(setups);

  // Repair probe (every workload prints repair_ms.p50): the first
  // kRepairJobs jobs of the stream, kept. After each pass the first channel
  // of each one's broadcast route is halved and restored; the samples
  // spread over the run like the ops', but their time is not loop time.
  // The probe plans serially: at planner width 2 the parallel recompiles in
  // repair_plans() can deadlock (a thread holding a tree-set slot's
  // once_flag helps run a queued recompile that waits on the same flag).
  std::vector<Probe> probes;
  for (int j = 0; j < kRepairJobs; ++j) {
    const Job& job = in.jobs[static_cast<std::size_t>(j)];
    Probe p;
    try {
      p.je = build_engine(in, job, 1);
      build_trees(p.je);
      p.plans = compile_job(p.je, job);
      for (const auto& r : execute_job(p.je, p.plans)) {
        p.healthy.push_back(r.seconds);
      }
    } catch (const std::exception& e) {
      out.fail(std::string("alloc_churn repair probe: ") + e.what());
      continue;
    }
    probes.push_back(std::move(p));
  }
  std::int64_t probe_ns = 0;
  auto probe = [&]() {
    const std::int64_t p0 = Tracer::now_ns();
    tr.set_op(-1);
    tr.set_enabled(config.trace);
    for (std::size_t j = 0; j < probes.size(); ++j) {
      Probe& p = probes[j];
      try {
        repair_probe(*p.je.engine, p.plans.back()->channel_footprint().front(),
                     p.plans, p.healthy, 1, 2 * static_cast<int>(j), out);
      } catch (const std::exception& e) {
        out.fail(std::string("alloc_churn repair probe: ") + e.what());
      }
    }
    tr.set_enabled(false);
    probe_ns += Tracer::now_ns() - p0;
  };

  // Timed loop: passes over the stream. A traced run alternates untraced and
  // traced passes; the first pass is always untraced.
  std::vector<std::vector<CollectiveResult>> first_pass(kStreamLength);
  std::vector<double> first_pass_algbw, first_pass_train;
  Digest digest;
  const std::int64_t loop_start = Tracer::now_ns();
  const std::int64_t deadline =
      loop_start + static_cast<std::int64_t>(config.seconds * 1e9);
  std::int64_t untraced_ns = 0;
  for (std::int64_t op = 0;; ++op) {
    const int index = static_cast<int>(op % kStreamLength);
    const std::int64_t pass = op / kStreamLength;
    if (index == 0 && pass > 0) probe();
    // Stop at the deadline once the first pass (and, traced, one traced
    // pass) is complete.
    if (pass >= (config.trace ? 2 : 1) && Tracer::now_ns() >= deadline) break;
    const bool traced = config.trace && pass % 2 == 1;
    tr.set_enabled(traced);
    tr.set_op(op);
    const Job& job = in.jobs[static_cast<std::size_t>(index)];
    ++out.attempted;
    const std::int64_t t0 = Tracer::now_ns();
    JobEngine je;
    std::vector<PlanPtr> plans;
    std::vector<CollectiveResult> results;
    double images = 0.0;
    int built = 0;
    try {
      Scope span("op");
      je = build_engine(in, job, kPlannerThreads);
      built = build_trees(je);
      plans = compile_job(je, job);
      results = execute_job(je, plans);
      images = train_images_per_s(je, job, results);
    } catch (const std::exception& e) {
      tr.set_enabled(false);
      out.fail(std::string("alloc_churn op: ") + e.what());
      continue;
    }
    const double wall = seconds_since(t0);
    out.add_op(traced, wall, index);
    if (!traced) untraced_ns += static_cast<std::int64_t>(wall * 1e9);

    // Output checks.
    bool ok = true;
    for (const auto& r : results) {
      ok = ok && std::isfinite(r.algorithm_bw) && r.algorithm_bw > 0.0;
    }
    const auto sets = job_tree_sets(je, plans);
    for (const auto* set : sets) ok = ok && within_edmonds_bound(*set);
    auto& reference = first_pass[static_cast<std::size_t>(index)];
    if (pass == 0) {
      reference = results;
      for (const auto& r : results) {
        digest.add(r.seconds);
        first_pass_algbw.push_back(r.algorithm_bw / 1e9);
      }
      first_pass_train.push_back(images);
    } else if (!same_timings(reference, results)) {
      ok = false;
    }
    if (!ok) out.fail("alloc_churn: output check failed on job " +
                      std::to_string(index));

    if (traced) {
      LayerCounters& c = out.counters;
      c.treegen_builds += built;
      for (const auto* set : sets) replay_packing(*set, kPlannerThreads, c);
      c.executes += static_cast<double>(plans.size());
      for (const auto& plan : plans) c.execute_ops += plan->num_ops();
      add_cache_stats(*je.engine, c);
      c.cache_ops += 1;
      if (je.cluster != nullptr) {
        c.cluster_jobs += 1;
        c.cluster_tree_builds += built;
        for (const auto& plan : plans) {
          for (int s = 0; s < je.engine->num_servers(); ++s) {
            c.nic_egress_bytes += blink::nic_egress_bytes(
                je.engine->fabric(), plan->program(), s);
          }
        }
      }
    }
    tr.set_enabled(false);
  }
  tr.set_op(-1);
  out.loop_seconds =
      config.trace ? static_cast<double>(untraced_ns) * 1e-9
                   : seconds_since(loop_start) -
                         static_cast<double>(probe_ns) * 1e-9;
  out.sim_digest = digest.value();
  out.sim_algbw_gbps = geo_mean(first_pass_algbw);
  out.sim_train_img_per_s = geo_mean(first_pass_train);
  return out;
}

}  // namespace blinkbench
