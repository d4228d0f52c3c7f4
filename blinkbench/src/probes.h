// Calls into the library's layers that only the traced run makes: replaying
// a built TreeSet through the packing stages, and checks shared by the
// workloads.
#pragma once

#include <string>

#include "blink/blink/engine.h"
#include "blink/blink/treegen.h"

namespace blinkbench {

// Raw per-layer accumulators of a traced run; main turns them into the
// per-layer metrics (see README.md for each metric's definition).
struct LayerCounters {
  double treegen_builds = 0;     // tree sets built by those ops
  double replays = 0;            // tree sets replayed through packing
  double mwu_iterations = 0;     // summed over replays
  double relaxed = 0;            // replays whose minimiser needed the LP
  double rate_frac_sum = 0;      // summed TreeSet rate / Edmonds bound
  double cluster_jobs = 0;       // multi-server communicators built
  double cluster_tree_builds = 0;  // ClusterBackend::tree_builds() summed
  double nic_egress_bytes = 0;   // NIC egress of the jobs' plans
  double executes = 0;           // unmemoized solo simulations
  double execute_ops = 0;        // simulated ops in those
  double group_launches = 0;     // grouped simulations
  double group_ops = 0;          // simulated ops in those
  double cache_hits = 0;         // plan-cache hits of the engines traced
  double cache_misses = 0;
  double cache_ops = 0;          // ops those engines served
  double repairs = 0;            // repair_plans() calls
  double dropped = 0;            // RepairReport sums
  double retained = 0;
  double recompiled = 0;
  double imports = 0;            // import_plans() calls
  double plans_imported = 0;
  double store_bytes = 0;        // size of the imported store files
};

// Replays |set|'s planning graph through packing::optimal_rate, mwu_pack and
// minimize_trees with TreeGen's default options, each in its own span, and
// accumulates the iteration and outcome counters. Empty sets are skipped.
void replay_packing(const blink::TreeSet& set, int workers,
                    LayerCounters& counters);

// Whether |set| packs no faster than its Edmonds bound (a packing above the
// bound would mean TreeGen's capacity accounting is broken). Empty sets pass.
bool within_edmonds_bound(const blink::TreeSet& set);

// Folds one engine's plan-cache counters into |counters|.
void add_cache_stats(const blink::CollectiveEngine& engine,
                     LayerCounters& counters);

// Folds one repair into |counters|.
void add_repair(const blink::RepairReport& report, LayerCounters& counters);

}  // namespace blinkbench
