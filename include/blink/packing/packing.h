/// \file
/// Spanning-arborescence packing (§3.1-§3.2): the TreeGen math.
///
/// Pipeline:
///   1. optimal_rate()   — exact packing optimum via Edmonds' theorem
///                         (min over destinations of root->v max-flow).
///   2. mwu_pack()       — multiplicative-weight-update fractional packing
///                         (Garg-Konemann style), near-optimal but with many
///                         trees: 106 on the 8-GPU DGX-1V from root 0 at the
///                         default epsilon (10-106 across roots; the paper
///                         reports 181 for its implementation).
///   3. minimize_trees() — the §3.2.1 ILP that selects few unit-weight
///                         trees, iteratively relaxed to fractional weights
///                         until within a threshold of the optimum
///                         (6 trees of weight 1.0 on the 8-GPU DGX-1V).
#pragma once

#include <vector>

#include "blink/graph/arborescence.h"
#include "blink/graph/digraph.h"

namespace blink::packing {

/// One packed tree and the bandwidth assigned to it.
struct WeightedTree {
  /// The spanning arborescence, rooted at the broadcast root.
  graph::Arborescence tree;
  /// Bytes/s of bandwidth assigned to this tree.
  double weight = 0.0;
};

/// Exact optimal broadcast packing rate from \p root (bytes/s). The per-
/// destination max-flows are independent; \p max_workers > 1 computes them
/// across the shared planner pool (the min over destinations is exact, so
/// the result is bit-identical to the serial scan).
double optimal_rate(const graph::DiGraph& g, int root, int max_workers = 1);

/// True when the trees' summed weights respect every capacity group within
/// the relative \p tolerance. Used as the safety check after each packing
/// stage.
bool respects_capacities(const graph::DiGraph& g,
                         const std::vector<WeightedTree>& trees,
                         double tolerance = 1e-6);

/// Largest factor by which all weights can be scaled while still respecting
/// capacities (the "tighten" step after MWU's conservative scaling); 1 when
/// no tree carries load.
double tighten_factor(const graph::DiGraph& g,
                      const std::vector<WeightedTree>& trees);

/// Knobs of mwu_pack().
struct MwuOptions {
  /// Garg-Konemann accuracy: smaller runs more iterations (about
  /// m log m / epsilon^2 for m capacity groups) for a rate closer to the
  /// optimum. Must lie in (0, 1).
  double epsilon = 0.05;
  /// Hard cap on MWU iterations (arborescence solves).
  int max_iterations = 100000;
};

/// The fractional packing mwu_pack() found.
struct MwuResult {
  /// Distinct trees, heaviest first; repeats across iterations are merged
  /// and the weights tightened to the capacity boundary.
  std::vector<WeightedTree> trees;
  /// Sum of the tree weights, bytes/s.
  double total_rate = 0.0;
  /// MWU iterations that added a tree (the solve that stops the loop is
  /// not counted).
  int iterations = 0;
};

/// Fractional packing via MWU. Requires every vertex reachable from \p root;
/// returns an empty result otherwise. Each iteration solves a minimum
/// arborescence under the current group lengths into one reused workspace
/// and adds its bottleneck / scale to that tree's running weight, so the
/// loop allocates only when a new distinct tree appears.
MwuResult mwu_pack(const graph::DiGraph& g, int root,
                   const MwuOptions& options = {});

/// The original MWU loop over graph::reference_min_cost_arborescence,
/// merging repeated trees through an ordered map after the loop. A test and
/// fuzz oracle only: mwu_pack() must return a bit-identical MwuResult (tree
/// order, edge ids, weights, total_rate and iterations).
MwuResult reference_mwu_pack(const graph::DiGraph& g, int root,
                             const MwuOptions& options = {});

/// Knobs of minimize_trees().
struct MinimizeOptions {
  /// Accept a packing whose rate is at least (1 - threshold) * optimal
  /// (§3.2.1 uses 5%).
  double threshold = 0.05;
  /// Unit for integer weights; <= 0 selects the minimum edge capacity.
  double unit = 0.0;
  /// Branch-and-bound node budget of the ILP stage.
  int ilp_max_nodes = 200000;
  /// Tie-break the ILP toward shallow trees: deep trees cost more pipeline
  /// fill and per-hop latency at execution time (§4.2.1). Each tree's
  /// objective is discounted by penalty * depth / n.
  double depth_penalty = 0.02;
  /// Planning fan-out: > 1 evaluates the relaxation's prune candidates (and
  /// the optimal-rate max-flows) across the shared planner pool. Purely a
  /// speed knob — the accepted prune sequence, and therefore the result, is
  /// bit-identical to the serial search at any width.
  int max_workers = 1;
};

/// Which stage of minimize_trees() produced the result.
enum class MinimizeStage {
  kIlp,      ///< integer unit weights sufficed
  kRelaxed,  ///< fractional LP weights were required
};

/// The reduced tree set minimize_trees() selected.
struct MinimizeResult {
  /// The selected trees with their final weights.
  std::vector<WeightedTree> trees;
  /// Sum of the tree weights, bytes/s.
  double total_rate = 0.0;
  /// Which stage produced the weights.
  MinimizeStage stage = MinimizeStage::kIlp;
  /// The c* the result is measured against.
  double optimal = 0.0;
};

/// Reduces \p candidates (typically MWU output) to few trees within the
/// threshold of the optimal rate.
MinimizeResult minimize_trees(const graph::DiGraph& g, int root,
                              const std::vector<WeightedTree>& candidates,
                              const MinimizeOptions& options = {});

}  // namespace blink::packing
