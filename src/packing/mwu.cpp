#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "blink/packing/packing.h"

namespace blink::packing {

MwuResult mwu_pack(const graph::DiGraph& g, int root,
                   const MwuOptions& options) {
  MwuResult result;
  if (g.num_vertices() <= 1 || !g.reachable_from(root)) return result;

  // Constraints live on capacity *groups*: for the §3.3 undirected packing
  // both directions of a link share one budget (and one MWU length).
  const auto m = static_cast<double>(g.num_groups());
  const double eps = options.epsilon;
  assert(eps > 0.0 && eps < 1.0);

  const auto caps = g.group_capacities();

  // Garg-Konemann initial lengths: delta / c_g.
  const double delta = (1.0 + eps) * std::pow((1.0 + eps) * m, -1.0 / eps);
  std::vector<double> length(static_cast<std::size_t>(g.num_groups()));
  for (int grp = 0; grp < g.num_groups(); ++grp) {
    length[static_cast<std::size_t>(grp)] =
        delta / caps[static_cast<std::size_t>(grp)];
  }
  // Garg-Konemann scaling makes the accumulated weights feasible. Each
  // iteration's bottleneck / scale is summed into its tree as it comes, in
  // iteration order.
  const double scale = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);

  // The distinct trees so far, in lexicographic order of their edge lists,
  // with their weights. Looking a repeat up copies nothing.
  std::map<std::vector<int>, double> weight_of;
  int iterations = 0;
  std::vector<double> edge_length(static_cast<std::size_t>(g.num_edges()));
  std::vector<int> tree;
  // One workspace and one tree buffer across every iteration: the solves
  // (up to max_iterations over the same graph) allocate nothing.
  graph::ArborescenceWorkspace workspace;
  while (iterations < options.max_iterations) {
    for (int e = 0; e < g.num_edges(); ++e) {
      edge_length[static_cast<std::size_t>(e)] =
          length[static_cast<std::size_t>(g.edge(e).group)];
    }
    const bool spanned =
        graph::min_cost_arborescence(g, root, edge_length, workspace, tree);
    assert(spanned);  // reachability checked above
    (void)spanned;
    double tree_length = 0.0;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (const int e : tree) {
      const auto grp = static_cast<std::size_t>(g.edge(e).group);
      tree_length += length[grp];
      bottleneck = std::min(bottleneck, caps[grp]);
    }
    if (tree_length >= 1.0) break;
    ++iterations;
    if (const auto it = weight_of.find(tree); it != weight_of.end()) {
      it->second += bottleneck / scale;
    } else {
      weight_of.emplace(tree, bottleneck / scale);
    }
    for (const int e : tree) {
      const auto grp = static_cast<std::size_t>(g.edge(e).group);
      length[grp] *= 1.0 + eps * bottleneck / caps[grp];
    }
  }
  result.iterations = iterations;

  for (const auto& [edges, weight] : weight_of) {
    result.trees.push_back({graph::Arborescence{root, edges}, weight});
  }
  // Heaviest first: downstream consumers (chunk splitting) like stable order.
  std::sort(result.trees.begin(), result.trees.end(),
            [](const WeightedTree& a, const WeightedTree& b) {
              return a.weight > b.weight;
            });
  // Tighten: rescale to the exact feasibility boundary.
  if (!result.trees.empty()) {
    const double f = tighten_factor(g, result.trees);
    for (auto& wt : result.trees) wt.weight *= f;
  }
  assert(respects_capacities(g, result.trees));

  for (const auto& wt : result.trees) result.total_rate += wt.weight;
  return result;
}

}  // namespace blink::packing
