#include "blink/fuzz/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blink/baselines/backends.h"
#include "blink/blink/codegen.h"
#include "blink/blink/communicator.h"
#include "blink/blink/multiserver.h"
#include "blink/blink/plan_io.h"
#include "blink/common/rng.h"
#include "blink/common/thread_pool.h"
#include "blink/packing/packing.h"
#include "blink/sim/executor.h"
#include "blink/sim/trace.h"

namespace blink::fuzz {
namespace {

constexpr CollectiveKind kAllKinds[] = {
    CollectiveKind::kBroadcast,    CollectiveKind::kGather,
    CollectiveKind::kReduce,       CollectiveKind::kAllReduce,
    CollectiveKind::kAllGather,    CollectiveKind::kReduceScatter,
};

bool is_rooted(CollectiveKind kind) {
  return kind == CollectiveKind::kBroadcast || kind == CollectiveKind::kGather ||
         kind == CollectiveKind::kReduce;
}

std::string fmt(const char* format, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

// One case's shared state: the seed, the generated fabric's description, and
// the report the checks record into.
struct CaseContext {
  std::uint64_t seed = 0;
  const FuzzOptions* options = nullptr;
  FuzzReport* report = nullptr;
  std::string fabric_desc;

  bool inject(const char* invariant) const {
    return options->inject == invariant;
  }

  void fail(const std::string& invariant, std::string detail) {
    FuzzFailure f;
    f.case_seed = seed;
    f.invariant = invariant;
    f.detail = std::move(detail);
    f.fabric = fabric_desc;
    char buf[48];
    std::snprintf(buf, sizeof buf, "blink_fuzz --case 0x%llx",
                  static_cast<unsigned long long>(seed));
    f.repro = buf;
    report->failures.push_back(std::move(f));
  }
};

// One compiled collective under test.
struct Shape {
  CollectiveKind kind = CollectiveKind::kBroadcast;
  double bytes = 0.0;
  int root = -1;  // -1 = backend default, like the one-shot methods
  int backend = 0;
};

std::string shape_label(const CollectiveEngine& engine, const Shape& s) {
  std::string label = to_string(s.kind);
  label += "/";
  label += engine.backend(s.backend).name();
  label += " bytes=" + fmt("%.6g", s.bytes) + " root=" + std::to_string(s.root);
  return label;
}

// Every supported (kind, backend) shape at |bytes|, rooted kinds at |root|.
std::vector<Shape> enumerate_shapes(const CollectiveEngine& engine,
                                    double bytes, int root) {
  std::vector<Shape> shapes;
  for (int b = 0; b < engine.num_backends(); ++b) {
    for (const CollectiveKind kind : kAllKinds) {
      if (!engine.backend(b).supports(kind)) continue;
      shapes.push_back({kind, bytes, is_rooted(kind) ? root : -1, b});
    }
  }
  return shapes;
}

// --- simulator oracle ---------------------------------------------------------

bool same_bits(const sim::RunResult& a, const sim::RunResult& b) {
  return a.makespan == b.makespan && a.op_start == b.op_start &&
         a.op_finish == b.op_finish && a.channel_bytes == b.channel_bytes;
}

// The incremental executor must reproduce the reference executor (a full
// max-min re-fill on every event) bit for bit. |got| is execute()'s or
// execute_group()'s result, |want| the reference's.
void check_sim_oracle(CaseContext& ctx, const std::string& label,
                      const sim::RunResult& got, sim::RunResult want) {
  ++ctx.report->executions;
  if (ctx.inject("sim-oracle")) {
    // Injection: the reference finishes one ulp later.
    want.makespan = std::nextafter(want.makespan, 1.0e300);
  }
  if (!same_bits(got, want)) {
    ctx.fail("sim-oracle", label + ": incremental makespan " +
                               fmt("%.17g", got.makespan) +
                               " vs reference " + fmt("%.17g", want.makespan) +
                               " (or per-op times / channel bytes differ)");
  }
}

// One grouped launch of every compiled plan, checked against the reference.
void check_group_oracle(
    CaseContext& ctx, const sim::Fabric& fabric,
    const std::vector<std::shared_ptr<const CollectivePlan>>& plans) {
  std::vector<const sim::Program*> programs;
  for (const auto& plan : plans) programs.push_back(&plan->program());
  if (programs.empty()) return;
  try {
    const auto got = sim::execute_group(fabric, programs);
    const auto want = sim::reference_execute_group(fabric, programs);
    ++ctx.report->executions;
    check_sim_oracle(ctx,
                     "grouped launch of " + std::to_string(programs.size()) +
                         " plans",
                     got.run, want.run);
  } catch (const std::exception& e) {
    ctx.fail("sim-oracle", std::string("grouped launch threw: ") + e.what());
  }
}

// --- TreeGen oracle -----------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const packing::MwuResult& a, const packing::MwuResult& b) {
  if (a.iterations != b.iterations || !same_bits(a.total_rate, b.total_rate) ||
      a.trees.size() != b.trees.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    if (a.trees[i].tree.root != b.trees[i].tree.root ||
        a.trees[i].tree.edge_ids != b.trees[i].tree.edge_ids ||
        !same_bits(a.trees[i].weight, b.trees[i].weight)) {
      return false;
    }
  }
  return true;
}

// mwu_pack over the flat arborescence solver must reproduce the reference
// MWU loop over the reference solver bit for bit: trees in the same order
// with the same edge ids and weights, total rate and iteration count.
void check_treegen_oracle(CaseContext& ctx, const std::string& label,
                          const graph::DiGraph& g, int root) {
  packing::MwuOptions options;
  options.epsilon = TreeGenOptions{}.mwu_epsilon;
  const packing::MwuResult got = packing::mwu_pack(g, root, options);
  packing::MwuResult want = packing::reference_mwu_pack(g, root, options);
  if (ctx.inject("treegen-oracle")) {
    // Injection: the reference packs one ulp more bandwidth.
    want.total_rate = std::nextafter(want.total_rate, 1.0e300);
  }
  if (!same_bits(got, want)) {
    ctx.fail("treegen-oracle",
             label + ": mwu_pack gave " + std::to_string(got.trees.size()) +
                 " trees at rate " + fmt("%.17g", got.total_rate) + " in " +
                 std::to_string(got.iterations) + " iterations, the "
                 "reference " + std::to_string(want.trees.size()) +
                 " trees at rate " + fmt("%.17g", want.total_rate) + " in " +
                 std::to_string(want.iterations) +
                 " (or tree edges / weights differ)");
  }
}

// --- per-plan invariants -----------------------------------------------------

// Executes |plan| and checks the invariants every compiled plan must hold:
// finite positive metadata, engine/simulator timing agreement, channel bytes
// bounded by capacity * makespan, every tree set within link capacities and
// the Edmonds bound, and plan-record serialization round-tripping
// bit-identically. Returns the executed result for kind-specific checks.
CollectiveResult check_plan(CaseContext& ctx, CollectiveEngine& engine,
                            const CollectivePlan& plan) {
  ++ctx.report->plans;
  const Shape shape{plan.kind(), plan.bytes(), plan.root(), plan.backend()};
  const std::string label = shape_label(engine, shape);

  const CollectiveResult r = engine.execute(plan);
  const sim::RunResult run = sim::execute(engine.fabric(), plan.program());
  ctx.report->executions += 2;
  check_sim_oracle(ctx, label, run,
                   sim::reference_execute(engine.fabric(), plan.program()));

  if (!(r.seconds > 0.0) || !std::isfinite(r.seconds) ||
      !(r.algorithm_bw > 0.0) || r.num_ops <= 0) {
    ctx.fail("meta", label + ": degenerate result (seconds=" +
                         fmt("%g", r.seconds) + ", bw=" +
                         fmt("%g", r.algorithm_bw) + ")");
  }
  if (r.seconds != run.makespan) {
    ctx.fail("engine-exec",
             label + ": engine seconds " + fmt("%.17g", r.seconds) +
                 " != simulated makespan " + fmt("%.17g", run.makespan));
  }

  sim::RunResult accounted = run;
  if (ctx.inject("capacity")) {
    // Injection: pretend every channel carried twice its bytes, as if the
    // executor had oversubscribed links by 2x.
    for (double& b : accounted.channel_bytes) b *= 2.0;
  }
  for (const auto& v :
       sim::capacity_violations(engine.fabric(), accounted, 1.0)) {
    ctx.fail("capacity",
             label + ": channel " + engine.fabric().channel_name(v.channel) +
                 " carried " + fmt("%.6g", v.bytes) + " bytes > bound " +
                 fmt("%.6g", v.bound));
  }

  const double tree_tol = ctx.inject("tree-capacity") ? -0.5 : 1e-6;
  for (const auto& set : plan.tree_sets()) {
    if (!set || set->empty()) continue;
    if (!packing::respects_capacities(set->graph, set->trees, tree_tol)) {
      ctx.fail("tree-capacity",
               label + ": packed trees exceed link capacities (root " +
                   std::to_string(set->root) + ")");
    }
    if (set->rate > set->optimal_rate * (1.0 + 1e-6)) {
      ctx.fail("tree-capacity",
               label + ": packed rate " + fmt("%.6g", set->rate) +
                   " exceeds Edmonds bound " + fmt("%.6g", set->optimal_rate));
    }
  }

  PlanRecord rec;
  rec.backend_name = engine.backend(plan.backend()).name();
  rec.kind = static_cast<int>(plan.kind());
  rec.root = plan.root();
  rec.bytes = plan.bytes();
  rec.chunk_bytes = plan.chunk_bytes();
  rec.phase2 = static_cast<int>(plan.phase2_strategy());
  rec.meta = plan.meta();
  rec.program = plan.program();
  rec.footprint = plan.channel_footprint();
  std::string first;
  serialize_plan_record(rec, &first);
  try {
    std::size_t pos = 0;
    const PlanRecord back = deserialize_plan_record(first, &pos);
    std::string second;
    serialize_plan_record(back, &second);
    if (ctx.inject("round-trip") && !second.empty()) {
      second[second.size() / 2] ^= 0x20;
    }
    if (second != first || pos != first.size()) {
      ctx.fail("round-trip", label + ": reserialized record differs (" +
                                 std::to_string(first.size()) + " vs " +
                                 std::to_string(second.size()) + " bytes)");
    }
  } catch (const std::exception& e) {
    ctx.fail("round-trip",
             label + ": deserialize rejected a fresh record: " + e.what());
  }
  return r;
}

// --- cluster NIC volume lower bounds ----------------------------------------

// Information-theoretic per-server NIC volume bounds, safe for any correct
// schedule (unlike per-implementation bounds, which hierarchical exchanges
// can beat): reductions never shrink a buffer below |bytes| and every
// server's data must cross its NIC at least once. The bound on the makespan
// is the slowest server's max(ingress, egress) volume over its NIC rate.
double nic_bound_seconds(const sim::Fabric& fabric,
                         const std::vector<topo::Topology>& servers,
                         CollectiveKind kind, double bytes, int root_server) {
  const int n_srv = static_cast<int>(servers.size());
  if (n_srv < 2) return 0.0;
  double total_gpus = 0.0;
  for (const auto& s : servers) total_gpus += s.num_gpus;
  double bound = 0.0;
  for (int s = 0; s < n_srv; ++s) {
    const double gpus =
        static_cast<double>(servers[static_cast<std::size_t>(s)].num_gpus);
    double ingress = 0.0;
    double egress = 0.0;
    switch (kind) {
      case CollectiveKind::kBroadcast:
        ingress = s == root_server ? 0.0 : bytes;
        egress = s == root_server ? bytes : 0.0;
        break;
      case CollectiveKind::kGather:
        ingress = s == root_server ? (total_gpus - gpus) * bytes : 0.0;
        egress = s == root_server ? 0.0 : gpus * bytes;
        break;
      case CollectiveKind::kReduce:
        ingress = s == root_server ? bytes : 0.0;
        egress = s == root_server ? 0.0 : bytes;
        break;
      case CollectiveKind::kAllReduce:
        ingress = bytes;
        egress = bytes;
        break;
      case CollectiveKind::kAllGather:
        ingress = (total_gpus - gpus) * bytes;
        egress = gpus * bytes;
        break;
      case CollectiveKind::kReduceScatter:
        ingress = gpus * bytes / total_gpus;
        egress = (total_gpus - gpus) * bytes / total_gpus;
        break;
    }
    const double rate = fabric.nic_rate(s);
    if (rate <= 0.0) continue;
    bound = std::max(bound, std::max(ingress, egress) / rate);
  }
  return bound;
}

int server_of_global_gpu(const std::vector<topo::Topology>& servers,
                         int global) {
  for (std::size_t s = 0; s < servers.size(); ++s) {
    if (global < servers[s].num_gpus) return static_cast<int>(s);
    global -= servers[s].num_gpus;
  }
  return static_cast<int>(servers.size()) - 1;
}

// --- determinism + plan-store round trip (rotation 0) ------------------------

std::string serialized_program(const CollectivePlan& plan) {
  std::string buf;
  serialize_program(plan.program(), &buf);
  return buf;
}

// Compiles |shapes| on |fresh| (an identically configured engine) and
// bit-compares every program against |reference|'s; then exports
// |reference|'s cache to a temp store, imports it into |imported| (also
// identically configured), and checks the warm compiles are hits with
// bit-identical programs.
void check_determinism(CaseContext& ctx, CollectiveEngine& reference,
                       CollectiveEngine& fresh, CollectiveEngine& imported,
                       const std::vector<Shape>& shapes) {
  for (const Shape& s : shapes) {
    const auto a = reference.compile(s.kind, s.bytes, s.root, s.backend);
    const auto b = fresh.compile(s.kind, s.bytes, s.root, s.backend);
    ++ctx.report->plans;
    if (serialized_program(*a) != serialized_program(*b)) {
      ctx.fail("determinism",
               shape_label(reference, s) +
                   ": identical engines compiled different programs");
    }
  }

  namespace fs = std::filesystem;
  char name[64];
  std::snprintf(name, sizeof name, "blink_fuzz_%016llx.bpc",
                static_cast<unsigned long long>(ctx.seed));
  const fs::path path = fs::temp_directory_path() / name;
  std::error_code ec;
  try {
    const std::size_t exported = reference.export_plans(path.string());
    const std::size_t loaded = imported.import_plans(path.string());
    if (loaded != exported) {
      ctx.fail("store-round-trip", "exported " + std::to_string(exported) +
                                       " plans but imported " +
                                       std::to_string(loaded));
    }
    const std::uint64_t misses_before = imported.plan_cache().misses();
    for (const Shape& s : shapes) {
      const auto a = reference.compile(s.kind, s.bytes, s.root, s.backend);
      const auto c = imported.compile(s.kind, s.bytes, s.root, s.backend);
      if (serialized_program(*a) != serialized_program(*c)) {
        ctx.fail("store-round-trip",
                 shape_label(reference, s) +
                     ": warm-loaded program differs from the saved one");
      }
    }
    if (imported.plan_cache().misses() != misses_before) {
      ctx.fail("store-round-trip",
               "warm-loaded engine recompiled " +
                   std::to_string(imported.plan_cache().misses() -
                                  misses_before) +
                   " shapes that were in the store");
    }
  } catch (const std::exception& e) {
    ctx.fail("store-round-trip",
             std::string("export/import round trip threw: ") + e.what());
  }
  fs::remove(path, ec);
}

// --- repair equals recompile (rotation 2) ------------------------------------

// A random health event that keeps global GPU numbering intact: degrade or
// fail a random channel, or fail a GPU on a server that has more than one.
sim::HealthEvent random_health_event(Rng& rng, const sim::Fabric& fabric) {
  sim::HealthEvent ev;
  const int kind = static_cast<int>(rng.next_below(3));
  if (kind == 2) {
    std::vector<std::pair<int, int>> candidates;
    for (int s = 0; s < fabric.num_servers(); ++s) {
      for (int g = 0; g < fabric.server(s).num_gpus; ++g) {
        if (fabric.server(s).num_gpus >= 2) candidates.push_back({s, g});
      }
    }
    if (!candidates.empty()) {
      const auto [s, g] =
          candidates[static_cast<std::size_t>(rng.next_below(candidates.size()))];
      ev.kind = sim::HealthEventKind::kFailGpu;
      ev.server = s;
      ev.gpu = g;
      return ev;
    }
  }
  ev.channel = rng.next_int(0, fabric.num_channels() - 1);
  if (kind == 1) {
    ev.kind = sim::HealthEventKind::kFailLink;
  } else {
    ev.kind = sim::HealthEventKind::kDegradeLink;
    ev.factor = 0.1 + 0.8 * rng.next_double();
  }
  return ev;
}

std::string describe_event(const sim::HealthEvent& ev,
                           const sim::Fabric& fabric) {
  std::string out = to_string(ev.kind);
  if (ev.kind == sim::HealthEventKind::kFailGpu) {
    out += " server=" + std::to_string(ev.server) +
           " gpu=" + std::to_string(ev.gpu);
  } else if (ev.channel >= 0) {
    out += " channel=" + fabric.channel_name(ev.channel);
    if (ev.kind == sim::HealthEventKind::kDegradeLink) {
      out += " factor=" + fmt("%.3f", ev.factor);
    }
  }
  return out;
}

// The outcome of compile+execute for one shape on a degraded fabric: either
// a serialized program or "cannot be lowered/executed". Repair and a
// from-scratch engine must agree on which, and byte-for-byte on the program.
struct DegradedOutcome {
  bool ok = false;
  std::string program;
};

DegradedOutcome try_shape(CollectiveEngine& engine, const Shape& s) {
  DegradedOutcome out;
  try {
    const auto plan = engine.compile(s.kind, s.bytes, s.root, s.backend);
    engine.execute(*plan);
    out.ok = true;
    out.program = serialized_program(*plan);
  } catch (const std::exception&) {
    out.ok = false;
  }
  return out;
}

// |repaired| compiled |shapes| before the event and went through
// repair_plans(event); |scratch| is an identically configured engine that
// sees the event with an empty cache (a from-scratch compile on the degraded
// fabric). Every shape must come out identically on both.
void check_repair(CaseContext& ctx, Rng& rng, CollectiveEngine& repaired,
                  CollectiveEngine& scratch, const std::vector<Shape>& shapes) {
  const sim::HealthEvent event = random_health_event(rng, repaired.fabric());
  const std::string event_desc = describe_event(event, repaired.fabric());
  try {
    repaired.repair_plans(event);
    scratch.repair_plans(event);  // empty cache: just applies the event
  } catch (const std::exception& e) {
    ctx.fail("repair", event_desc + ": repair_plans threw: " + e.what());
    return;
  }
  for (const Shape& s : shapes) {
    Shape fresh_shape = s;
    if (ctx.inject("repair")) {
      // Injection: the from-scratch engine compiles a different payload, so
      // the bit-compare sees a genuinely different program.
      fresh_shape.bytes = s.bytes * 1.5;
    }
    const DegradedOutcome a = try_shape(repaired, s);
    const DegradedOutcome b = try_shape(scratch, fresh_shape);
    ++ctx.report->plans;
    if (a.ok != b.ok) {
      ctx.fail("repair", shape_label(repaired, s) + " after " + event_desc +
                             ": repaired engine " +
                             (a.ok ? "lowered" : "failed") +
                             " but from-scratch compile " +
                             (b.ok ? "lowered" : "failed"));
    } else if (a.ok && a.program != b.program) {
      ctx.fail("repair", shape_label(repaired, s) + " after " + event_desc +
                             ": repaired program differs from a from-scratch "
                             "compile on the degraded fabric");
    }
  }
}

// --- flat single-tree references (cluster rotation 3) ------------------------

// The heaviest packed tree of one server rooted at its GPU 0, over NVLink or
// the PCIe fallback; nullopt when the server cannot be spanned (single GPU).
std::optional<RoutedTree> heaviest_tree(const sim::Fabric& fabric,
                                        const std::vector<topo::Topology>& servers,
                                        int s, const ClusterOptions& opts) {
  TreeGenOptions tg = opts.treegen;
  tg.link = topo::LinkType::kNVLink;
  TreeSet set = generate_trees(servers[static_cast<std::size_t>(s)], 0, tg);
  if (set.empty()) {
    tg.link = topo::LinkType::kPCIe;
    set = generate_trees(servers[static_cast<std::size_t>(s)], 0, tg);
  }
  if (set.empty()) return std::nullopt;
  auto trees = route_trees(fabric, s, set);
  if (trees.empty()) return std::nullopt;
  std::sort(trees.begin(), trees.end(),
            [](const RoutedTree& a, const RoutedTree& b) {
              return a.weight > b.weight;
            });
  return trees.front();
}

// Whole-buffer broadcast from global GPU 0 over one tree per server — the
// naive reference the three-phase protocol must never lose to.
std::optional<double> flat_broadcast_seconds(
    const std::vector<topo::Topology>& servers, double bytes,
    const ClusterOptions& opts) {
  const sim::Fabric fabric(servers, opts.fabric);
  ProgramBuilder builder(fabric, opts.codegen);
  const int chunks = builder.chunks_for(bytes);
  const auto root_tree = heaviest_tree(fabric, servers, 0, opts);
  if (!root_tree) return std::nullopt;
  builder.tree_broadcast_chunks(*root_tree, bytes, chunks);
  for (int s = 1; s < fabric.num_servers(); ++s) {
    const auto tree = heaviest_tree(fabric, servers, s, opts);
    if (!tree) return std::nullopt;
    const auto arrived =
        builder.copy_chunks(fabric.nic_route(0, s), bytes, chunks, s);
    const std::vector<int> gates(static_cast<std::size_t>(chunks),
                                 arrived.back());
    builder.tree_broadcast_chunks(*tree, bytes, chunks, gates);
  }
  return sim::execute(fabric, builder.take()).makespan;
}

// Whole-buffer all-reduce: per-server tree reduce, full pairwise NIC
// exchange, root-side reduce kernels, tree broadcast.
std::optional<double> flat_all_reduce_seconds(
    const std::vector<topo::Topology>& servers, double bytes,
    const ClusterOptions& opts) {
  const sim::Fabric fabric(servers, opts.fabric);
  ProgramBuilder builder(fabric, opts.codegen);
  const int n_srv = fabric.num_servers();
  const int chunks = builder.chunks_for(bytes);
  std::vector<RoutedTree> tree;
  std::vector<int> reduced;
  for (int s = 0; s < n_srv; ++s) {
    const auto t = heaviest_tree(fabric, servers, s, opts);
    if (!t) return std::nullopt;
    tree.push_back(*t);
    const auto done = builder.tree_reduce_chunks(tree.back(), bytes, chunks,
                                                 /*with_kernels=*/true);
    reduced.push_back(done.back());
  }
  for (int s = 0; s < n_srv; ++s) {
    std::vector<int> deps{reduced[static_cast<std::size_t>(s)]};
    for (int src = 0; src < n_srv; ++src) {
      if (src == s) continue;
      const std::vector<int> gates(static_cast<std::size_t>(chunks),
                                   reduced[static_cast<std::size_t>(src)]);
      deps.push_back(builder
                         .copy_chunks(fabric.nic_route(src, s), bytes, chunks,
                                      n_srv * src + s, gates)
                         .back());
    }
    const int kernel =
        builder.reduce_kernel(s, 0, bytes * n_srv, std::move(deps));
    const std::vector<int> gates(static_cast<std::size_t>(chunks), kernel);
    builder.tree_broadcast_chunks(tree[static_cast<std::size_t>(s)], bytes,
                                  chunks, gates);
  }
  return sim::execute(fabric, builder.take()).makespan;
}

// --- the single-server case --------------------------------------------------

void register_baselines(Communicator& comm) {
  for (const char* name : {"nccl", "ring", "double_binary", "butterfly"}) {
    comm.register_backend(baselines::make_baseline_backend(
        name, comm.topology(), comm.fabric(), {}));
  }
}

void run_single_server_case(CaseContext& ctx, Rng& rng,
                            const topo::Topology& server, double bytes,
                            int rotation) {
  ++ctx.report->single_server_cases;
  CommunicatorOptions copts;
  copts.planner_threads = 1;  // the fuzzer parallelizes across cases
  Communicator comm(server, copts);
  register_baselines(comm);

  const int root = rng.next_int(0, server.num_gpus - 1);
  const std::vector<Shape> shapes = enumerate_shapes(comm, bytes, root);
  std::vector<std::shared_ptr<const CollectivePlan>> plans;
  for (const Shape& s : shapes) {
    try {
      const auto plan = comm.compile(s.kind, s.bytes, s.root, s.backend);
      plans.push_back(plan);
      check_plan(ctx, comm, *plan);
      // Broadcast moves each payload byte to every receiver exactly once,
      // whatever the route: total copy volume is (n - 1) * bytes. (Ring and
      // tree broadcasts alike; reductions and shard moves have their own
      // volume identities, checked by the unit suites.)
      if (s.kind == CollectiveKind::kBroadcast) {
        const double expected = (server.num_gpus - 1) * s.bytes;
        const double actual = plan->program().total_copy_bytes();
        if (std::abs(actual - expected) > 1e-3 * s.bytes) {
          ctx.fail("conservation",
                   shape_label(comm, s) + ": broadcast copied " +
                       fmt("%.6g", actual) + " bytes, expected " +
                       fmt("%.6g", expected));
        }
      }
    } catch (const std::exception& e) {
      ctx.fail("compile", shape_label(comm, s) +
                              ": unexpectedly failed to lower on a healthy "
                              "fabric: " + e.what());
    }
  }
  check_group_oracle(ctx, comm.fabric(), plans);
  {
    const TreeSet& set = comm.tree_set(root);
    check_treegen_oracle(ctx, "tree set of root " + std::to_string(root),
                         set.graph, set.root);
  }

  if (rotation == 0) {
    Communicator fresh(server, copts);
    register_baselines(fresh);
    Communicator imported(server, copts);
    register_baselines(imported);
    check_determinism(ctx, comm, fresh, imported, shapes);
  } else if (rotation == 2) {
    Communicator scratch(server, copts);
    register_baselines(scratch);
    check_repair(ctx, rng, comm, scratch, shapes);
  } else if (server.nvlink_connected() && !server.has_nvswitch) {
    // Plan-vs-execution bound on the packed broadcast rate: the executed
    // bandwidth can never beat the packed rate, and at pipeline-friendly
    // payloads it must realize a healthy fraction of it. Two exemptions:
    // PCIe-fallback fabrics, whose packed rate deliberately overstates the
    // shared host-staging segments, and NVSwitch boxes, whose all-pairs
    // planning-graph edges are virtual — the crossbar's port-shared capacity
    // in the fabric makes the packed rate neither an upper nor a lower bound
    // for the simulated transfer.
    const double big = std::max(bytes, 32.0e6);
    try {
      const auto plan =
          comm.compile(CollectiveKind::kBroadcast, big, root, /*backend=*/0);
      const CollectiveResult r = comm.execute(*plan);
      ++ctx.report->executions;
      const TreeSet& set = comm.tree_set(root);
      const double ceiling =
          ctx.inject("planning-bound") ? set.rate * 0.5 : set.rate;
      if (r.algorithm_bw > ceiling * (1.0 + 1e-6)) {
        ctx.fail("planning-bound",
                 "broadcast bw " + fmt("%.6g", r.algorithm_bw) +
                     " exceeds the packed rate " + fmt("%.6g", set.rate));
      }
      if (!set.empty() && r.algorithm_bw < 0.25 * set.rate) {
        ctx.fail("planning-bound",
                 "broadcast bw " + fmt("%.6g", r.algorithm_bw) +
                     " realizes under 25% of the packed rate " +
                     fmt("%.6g", set.rate));
      }
    } catch (const std::exception& e) {
      ctx.fail("planning-bound",
               std::string("broadcast at 32 MB failed to lower: ") + e.what());
    }
  }
}

// --- the multi-server case ---------------------------------------------------

ClusterOptions cluster_options(const topo::zoo::RandomFabric& rf,
                               bool pipeline = true) {
  ClusterOptions opts;
  opts.fabric = rf.fabric;
  opts.pipeline = pipeline;
  opts.engine.planner_threads = 1;  // the fuzzer parallelizes across cases
  return opts;
}

void run_cluster_case(CaseContext& ctx, Rng& rng,
                      const topo::zoo::RandomFabric& rf, double bytes,
                      int rotation) {
  ++ctx.report->multi_server_cases;
  ClusterCommunicator comm(rf.servers, cluster_options(rf));
  const int root = rng.next_int(0, comm.num_gpus() - 1);
  const int root_server = server_of_global_gpu(rf.servers, root);
  const std::vector<Shape> shapes = enumerate_shapes(comm, bytes, root);
  std::vector<std::shared_ptr<const CollectivePlan>> plans;
  for (const Shape& s : shapes) {
    try {
      const auto plan = comm.compile(s.kind, s.bytes, s.root, s.backend);
      plans.push_back(plan);
      const CollectiveResult r = check_plan(ctx, comm, *plan);
      const double scale = ctx.inject("nic-bound") ? 16.0 : 1.0;
      const double bound =
          scale * nic_bound_seconds(comm.fabric(), rf.servers, s.kind, s.bytes,
                                    is_rooted(s.kind) ? root_server : -1);
      if (r.seconds < 0.999 * bound) {
        ctx.fail("nic-bound",
                 shape_label(comm, s) + ": finished in " +
                     fmt("%.6g", r.seconds) + "s, below the NIC volume lower "
                     "bound " + fmt("%.6g", bound) + "s");
      }
    } catch (const std::exception& e) {
      ctx.fail("compile", shape_label(comm, s) +
                              ": unexpectedly failed to lower on a healthy "
                              "fabric: " + e.what());
    }
  }
  check_group_oracle(ctx, comm.fabric(), plans);
  {
    // The root server's undirected-capacity planning graph, as its
    // all-reduce tree sets pack it (PCIe when NVLink does not reach).
    const topo::Topology& server =
        rf.servers[static_cast<std::size_t>(root_server)];
    int local_root = root;
    for (int s = 0; s < root_server; ++s) {
      local_root -= rf.servers[static_cast<std::size_t>(s)].num_gpus;
    }
    graph::DiGraph g = graph::nvlink_digraph(server, /*undirected=*/true);
    if (g.num_edges() == 0 || !g.reachable_from(local_root)) {
      g = graph::pcie_digraph(server);
    }
    check_treegen_oracle(ctx, "server " + std::to_string(root_server) +
                                  " root " + std::to_string(local_root),
                         g, local_root);
  }

  if (rotation == 0) {
    ClusterCommunicator fresh(rf.servers, cluster_options(rf));
    ClusterCommunicator imported(rf.servers, cluster_options(rf));
    check_determinism(ctx, comm, fresh, imported, shapes);
  } else if (rotation == 1) {
    // Cross-phase chunk pipelining must never lose to the whole-partition
    // joins it replaces (each side's phase-2 bake-off picks its own best).
    ClusterCommunicator unpipelined(rf.servers,
                                    cluster_options(rf, /*pipeline=*/false));
    for (const Shape& s : shapes) {
      try {
        const CollectiveResult on =
            comm.execute(*comm.compile(s.kind, s.bytes, s.root, s.backend));
        const CollectiveResult off = unpipelined.execute(
            *unpipelined.compile(s.kind, s.bytes, s.root, s.backend));
        ctx.report->executions += 2;
        const double ceiling =
            // 1% relative + 1 ms absolute slack: on millisecond-scale
            // schedules the extra chunk boundaries cost a hair of overhead
            // even when cross-phase overlap wins overall; at the payloads
            // where pipelining matters the absolute term vanishes.
            ctx.inject("pipeline") ? off.seconds * 0.5
                                   : off.seconds * 1.01 + 1.0e-3;
        if (on.seconds > ceiling) {
          ctx.fail("pipeline",
                   shape_label(comm, s) + ": pipelined " +
                       fmt("%.6g", on.seconds) + "s is slower than the "
                       "whole-partition schedule " +
                       fmt("%.6g", off.seconds) + "s");
        }
      } catch (const std::exception& e) {
        ctx.fail("pipeline",
                 shape_label(comm, s) + ": lowering threw: " + e.what());
      }
    }
  } else if (rotation == 2) {
    ClusterCommunicator scratch(rf.servers, cluster_options(rf));
    check_repair(ctx, rng, comm, scratch, shapes);
  } else {
    // The three-phase plans must never lose to the naive flat single-tree
    // schedules (whole buffer, one tree per server, no partitions). Only
    // meaningful when every server can be tree-spanned (>= 2 GPUs, NVLink or
    // NVSwitch — a PCIe-only member can genuinely favour one staged tree
    // over the partitioned protocol) and at a payload large enough that
    // pipeline fill does not dominate.
    bool spannable = true;
    for (const auto& s : rf.servers) {
      spannable = spannable && s.num_gpus >= 2 &&
                  (s.nvlink_connected() || s.has_nvswitch);
    }
    if (spannable) {
      const double big = std::max(bytes, 32.0e6);
      const double slack = ctx.inject("flat-reference") ? 0.5 : 1.001;
      const auto flat_bcast =
          flat_broadcast_seconds(rf.servers, big, comm.options());
      const auto flat_ar =
          flat_all_reduce_seconds(rf.servers, big, comm.options());
      try {
        if (flat_bcast) {
          const auto r =
              comm.execute(*comm.compile(CollectiveKind::kBroadcast, big, 0));
          ctx.report->executions += 1;
          if (r.seconds > *flat_bcast * slack) {
            ctx.fail("flat-reference",
                     "broadcast " + fmt("%.6g", r.seconds) +
                         "s lost to the flat single-tree reference " +
                         fmt("%.6g", *flat_bcast) + "s");
          }
        }
        if (flat_ar) {
          const auto r =
              comm.execute(*comm.compile(CollectiveKind::kAllReduce, big));
          ctx.report->executions += 1;
          if (r.seconds > *flat_ar * slack) {
            ctx.fail("flat-reference",
                     "all_reduce " + fmt("%.6g", r.seconds) +
                         "s lost to the flat single-tree reference " +
                         fmt("%.6g", *flat_ar) + "s");
          }
        }
      } catch (const std::exception& e) {
        ctx.fail("flat-reference",
                 std::string("reference comparison threw: ") + e.what());
      }
    }
  }
}

}  // namespace

std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer over the golden-ratio stream, the same mix Rng's
  // seeding uses: neighbouring indices yield fully decorrelated case seeds.
  std::uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void run_case(std::uint64_t case_seed, const FuzzOptions& options,
              FuzzReport* report) {
  CaseContext ctx;
  ctx.seed = case_seed;
  ctx.options = &options;
  ctx.report = report;
  ++report->cases;

  Rng rng(case_seed);
  topo::zoo::RandomFabric rf;
  try {
    rf = topo::zoo::make_random_fabric(case_seed, options.fabric);
  } catch (const std::exception& e) {
    ctx.fail("generator", std::string("make_random_fabric threw: ") + e.what());
    return;
  }
  ctx.fabric_desc = rf.describe();
  for (const auto& server : rf.servers) {
    std::string error;
    if (!server.validate(&error)) {
      ctx.fail("generator", server.name + " failed validate(): " + error);
      return;
    }
  }

  const double bytes =
      options.min_bytes +
      rng.next_double() * (options.max_bytes - options.min_bytes);
  const int rotation = static_cast<int>(rng.next_below(4));
  try {
    if (rf.servers.size() == 1) {
      run_single_server_case(ctx, rng, rf.servers.front(), bytes, rotation);
    } else {
      run_cluster_case(ctx, rng, rf, bytes, rotation);
    }
  } catch (const std::exception& e) {
    ctx.fail("harness", std::string("uncaught exception: ") + e.what());
  }
}

FuzzReport run(std::uint64_t seed, std::size_t iters,
               const FuzzOptions& options) {
  std::vector<FuzzReport> partial(iters);
  // common::parallel_for runs serially at width <= 1, so the default
  // (workers = 0) resolves to the pool's width here.
  const std::size_t width =
      options.workers > 0 ? static_cast<std::size_t>(options.workers)
                          : common::ThreadPool::default_threads();
  common::parallel_for(iters, width,
                       [&](std::size_t i) {
                         run_case(case_seed(seed, i), options, &partial[i]);
                       });
  FuzzReport merged;
  for (const FuzzReport& p : partial) {
    merged.cases += p.cases;
    merged.single_server_cases += p.single_server_cases;
    merged.multi_server_cases += p.multi_server_cases;
    merged.plans += p.plans;
    merged.executions += p.executions;
    merged.failures.insert(merged.failures.end(), p.failures.begin(),
                           p.failures.end());
  }
  std::stable_sort(merged.failures.begin(), merged.failures.end(),
                   [](const FuzzFailure& a, const FuzzFailure& b) {
                     return a.case_seed < b.case_seed;
                   });
  return merged;
}

const std::vector<std::string>& injectable_invariants() {
  static const std::vector<std::string> kNames = {
      "capacity",  "tree-capacity", "round-trip",
      "nic-bound", "pipeline",      "planning-bound",
      "repair",    "flat-reference", "sim-oracle",
      "treegen-oracle"};
  return kNames;
}

}  // namespace blink::fuzz
