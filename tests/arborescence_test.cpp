#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "blink/common/rng.h"
#include "blink/graph/arborescence.h"

namespace blink::graph {
namespace {

// Brute-force minimum arborescence by trying every combination of one
// in-edge per non-root vertex. Exponential; only for tiny graphs.
double brute_force_min(const DiGraph& g, int root,
                       const std::vector<double>& cost) {
  const int n = g.num_vertices();
  std::vector<std::vector<int>> choices;
  for (int v = 0; v < n; ++v) {
    if (v == root) continue;
    if (g.in_edges(v).empty()) return -1.0;
    choices.push_back(g.in_edges(v));
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> idx(choices.size(), 0);
  while (true) {
    // Check the current combination for acyclicity (walk to root).
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    double total = 0.0;
    std::size_t k = 0;
    for (int v = 0; v < n; ++v) {
      if (v == root) continue;
      const int e = choices[k][idx[k]];
      parent[static_cast<std::size_t>(v)] = g.edge(e).src;
      total += cost[static_cast<std::size_t>(e)];
      ++k;
    }
    bool valid = true;
    for (int v = 0; v < n && valid; ++v) {
      int u = v;
      int steps = 0;
      while (u != root) {
        u = parent[static_cast<std::size_t>(u)];
        if (u < 0 || ++steps > n) {
          valid = false;
          break;
        }
      }
    }
    if (valid) best = std::min(best, total);
    // Next combination.
    std::size_t i = 0;
    while (i < idx.size() && ++idx[i] == choices[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) break;
  }
  return std::isinf(best) ? -1.0 : best;
}

double tree_cost(const Arborescence& arb, const std::vector<double>& cost) {
  double total = 0.0;
  for (const int e : arb.edge_ids) total += cost[static_cast<std::size_t>(e)];
  return total;
}

TEST(Arborescence, SimpleTriangle) {
  DiGraph g(3);
  g.add_edge(0, 1, 1e9);
  g.add_edge(0, 2, 1e9);
  g.add_edge(1, 2, 1e9);
  const std::vector<double> cost{1.0, 5.0, 1.0};
  const auto arb = min_cost_arborescence(g, 0, cost);
  ASSERT_TRUE(arb.has_value());
  EXPECT_TRUE(arb->spans(g));
  EXPECT_DOUBLE_EQ(tree_cost(*arb, cost), 2.0);  // 0->1, 1->2
}

TEST(Arborescence, UnreachableVertexFails) {
  DiGraph g(3);
  g.add_edge(0, 1, 1e9);
  g.add_edge(2, 1, 1e9);  // nothing reaches 2 from 0
  const std::vector<double> cost{1.0, 1.0};
  EXPECT_FALSE(min_cost_arborescence(g, 0, cost).has_value());
}

TEST(Arborescence, SingleVertex) {
  DiGraph g(1);
  const auto arb = min_cost_arborescence(g, 0, {});
  ASSERT_TRUE(arb.has_value());
  EXPECT_TRUE(arb->edge_ids.empty());
}

TEST(Arborescence, CycleContractionRequired) {
  // Classic case: the greedy in-edge choice creates a 1<->2 cycle that must
  // be contracted.
  DiGraph g(3);
  g.add_edge(0, 1, 1e9);  // cost 10
  g.add_edge(2, 1, 1e9);  // cost 1
  g.add_edge(1, 2, 1e9);  // cost 1
  g.add_edge(0, 2, 1e9);  // cost 10
  const std::vector<double> cost{10.0, 1.0, 1.0, 10.0};
  const auto arb = min_cost_arborescence(g, 0, cost);
  ASSERT_TRUE(arb.has_value());
  EXPECT_TRUE(arb->spans(g));
  EXPECT_DOUBLE_EQ(tree_cost(*arb, cost), 11.0);
}

TEST(Arborescence, DepthAndParents) {
  DiGraph g(4);
  const int e01 = g.add_edge(0, 1, 1e9);
  const int e12 = g.add_edge(1, 2, 1e9);
  const int e23 = g.add_edge(2, 3, 1e9);
  Arborescence arb{0, {e01, e12, e23}};
  EXPECT_TRUE(arb.spans(g));
  EXPECT_EQ(arb.depth(g), 3);
  const auto parents = arb.parents(g);
  EXPECT_EQ(parents[0], -1);
  EXPECT_EQ(parents[3], 2);
}

TEST(Arborescence, MatchesBruteForceOnRandomGraphs) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.next_int(2, 5);
    DiGraph g(n);
    std::vector<double> cost;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.next_double() < 0.6) {
          g.add_edge(u, v, 1e9);
          cost.push_back(static_cast<double>(rng.next_int(0, 20)));
        }
      }
    }
    if (g.num_edges() == 0) continue;
    const int root = rng.next_int(0, n - 1);
    const double expected = brute_force_min(g, root, cost);
    const auto arb = min_cost_arborescence(g, root, cost);
    if (expected < 0.0) {
      EXPECT_FALSE(arb.has_value()) << "trial " << trial;
    } else {
      ASSERT_TRUE(arb.has_value()) << "trial " << trial;
      EXPECT_TRUE(arb->spans(g));
      EXPECT_NEAR(tree_cost(*arb, cost), expected, 1e-9) << "trial " << trial;
    }
  }
}

// The flat solver against the original recursive one on seeded random
// multigraphs built to stress the tie-breaks: small-integer and zero costs
// (ties everywhere), near-equal non-integer costs (ties made by rounded
// subtraction), parallel edges, sparse graphs with unreachable vertices, and
// every root. One workspace serves every solve, so stale
// scratch from a larger graph must never leak into a smaller one.
TEST(Arborescence, MatchesReferenceOnRandomMultigraphs) {
  Rng rng(20261020);
  ArborescenceWorkspace workspace;
  std::vector<int> edge_ids;
  int solves = 0;
  int spanning = 0;
  int unreachable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int n = rng.next_int(1, 10);
    const double density = rng.next_double();
    const int cost_kind = rng.next_int(0, 3);
    DiGraph g(n);
    std::vector<double> cost;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u == v || rng.next_double() > density) continue;
        const int copies = rng.next_double() < 0.3 ? rng.next_int(2, 3) : 1;
        for (int c = 0; c < copies; ++c) {
          g.add_edge(u, v, 1e9);
          switch (cost_kind) {
            case 0: cost.push_back(rng.next_int(0, 2)); break;
            case 1: cost.push_back(rng.next_int(0, 20)); break;
            case 2: cost.push_back(1.0 + 0.1 * rng.next_int(0, 4)); break;
            default: cost.push_back(1.0 + 1e-3 * rng.next_double()); break;
          }
        }
      }
    }
    for (int root = 0; root < n; ++root) {
      ++solves;
      const auto want = reference_min_cost_arborescence(g, root, cost);
      const auto got = min_cost_arborescence(g, root, cost);
      const bool solved =
          min_cost_arborescence(g, root, cost, workspace, edge_ids);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "trial " << trial << " root " << root;
      ASSERT_EQ(solved, want.has_value())
          << "trial " << trial << " root " << root;
      if (!want) {
        ++unreachable;
        continue;
      }
      ++spanning;
      EXPECT_EQ(got->root, root);
      EXPECT_EQ(got->edge_ids, want->edge_ids)
          << "trial " << trial << " root " << root;
      EXPECT_EQ(edge_ids, want->edge_ids)
          << "trial " << trial << " root " << root << " (workspace)";
    }
  }
  // The corpus must exercise both outcomes, at the promised size.
  EXPECT_GE(solves, 1000);
  EXPECT_GT(spanning, 500);
  EXPECT_GT(unreachable, 100);
}

TEST(Arborescence, MovedFromWorkspaceStillSolves) {
  DiGraph g(3);
  g.add_edge(0, 1, 1e9);
  g.add_edge(1, 2, 1e9);
  g.add_edge(0, 2, 1e9);
  const std::vector<double> cost{1.0, 1.0, 5.0};
  ArborescenceWorkspace a;
  ArborescenceWorkspace b(std::move(a));
  std::vector<int> ids;
  ASSERT_TRUE(min_cost_arborescence(g, 0, cost, a, ids));  // a: moved from
  EXPECT_EQ(ids, (std::vector<int>{0, 1}));
  ASSERT_TRUE(min_cost_arborescence(g, 0, cost, b, ids));
  EXPECT_EQ(ids, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace blink::graph
