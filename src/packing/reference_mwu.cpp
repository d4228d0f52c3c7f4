// The reference MWU packing loop: the original Garg-Konemann loop over the
// reference arborescence solver, collecting one WeightedTree per iteration
// and merging repeats through an ordered map afterwards. It is kept as the
// bit-exact oracle for mwu_pack (packing_test's zoo sweep and the fuzzer's
// treegen-oracle invariant compare the two).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "blink/packing/packing.h"

namespace blink::packing {
namespace {

// Merge trees with identical edge sets, summing their weights.
std::vector<WeightedTree> deduplicate(std::vector<WeightedTree> trees) {
  std::map<std::vector<int>, WeightedTree> by_edges;
  for (auto& wt : trees) {
    auto key = wt.tree.edge_ids;  // already sorted by the solver
    auto [it, inserted] = by_edges.try_emplace(std::move(key), wt);
    if (!inserted) it->second.weight += wt.weight;
  }
  std::vector<WeightedTree> out;
  out.reserve(by_edges.size());
  for (auto& [key, wt] : by_edges) out.push_back(std::move(wt));
  // Heaviest first: downstream consumers (chunk splitting) like stable order.
  std::sort(out.begin(), out.end(),
            [](const WeightedTree& a, const WeightedTree& b) {
              return a.weight > b.weight;
            });
  return out;
}

}  // namespace

MwuResult reference_mwu_pack(const graph::DiGraph& g, int root,
                             const MwuOptions& options) {
  MwuResult result;
  if (g.num_vertices() <= 1 || !g.reachable_from(root)) return result;

  const auto m = static_cast<double>(g.num_groups());
  const double eps = options.epsilon;
  assert(eps > 0.0 && eps < 1.0);

  const auto caps = g.group_capacities();

  const double delta = (1.0 + eps) * std::pow((1.0 + eps) * m, -1.0 / eps);
  std::vector<double> length(static_cast<std::size_t>(g.num_groups()));
  for (int grp = 0; grp < g.num_groups(); ++grp) {
    length[static_cast<std::size_t>(grp)] =
        delta / caps[static_cast<std::size_t>(grp)];
  }

  std::vector<WeightedTree> raw;
  int iterations = 0;
  std::vector<double> edge_length(static_cast<std::size_t>(g.num_edges()));
  while (iterations < options.max_iterations) {
    for (int e = 0; e < g.num_edges(); ++e) {
      edge_length[static_cast<std::size_t>(e)] =
          length[static_cast<std::size_t>(g.edge(e).group)];
    }
    auto arb = graph::reference_min_cost_arborescence(g, root, edge_length);
    assert(arb.has_value());  // reachability checked above
    double tree_length = 0.0;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (const int e : arb->edge_ids) {
      const auto grp = static_cast<std::size_t>(g.edge(e).group);
      tree_length += length[grp];
      bottleneck = std::min(bottleneck, caps[grp]);
    }
    if (tree_length >= 1.0) break;
    ++iterations;
    raw.push_back({*arb, bottleneck});
    for (const int e : arb->edge_ids) {
      const auto grp = static_cast<std::size_t>(g.edge(e).group);
      length[grp] *= 1.0 + eps * bottleneck / caps[grp];
    }
  }
  result.iterations = iterations;

  const double scale = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
  for (auto& wt : raw) wt.weight /= scale;

  raw = deduplicate(std::move(raw));
  if (!raw.empty()) {
    const double f = tighten_factor(g, raw);
    for (auto& wt : raw) wt.weight *= f;
  }
  assert(respects_capacities(g, raw));

  result.trees = std::move(raw);
  for (const auto& wt : result.trees) result.total_rate += wt.weight;
  return result;
}

}  // namespace blink::packing
