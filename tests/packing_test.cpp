#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "blink/common/rng.h"
#include "blink/packing/packing.h"
#include "blink/topology/builders.h"
#include "blink/topology/binning.h"
#include "blink/topology/discovery.h"
#include "blink/topology/zoo.h"

namespace blink::packing {
namespace {

graph::DiGraph dgx1v_graph() {
  return graph::nvlink_digraph(topo::make_dgx1v());
}

TEST(Mwu, AchievesNearOptimalRateOnDgx1v) {
  const auto g = dgx1v_graph();
  const double optimal = optimal_rate(g, 0);
  const auto result = mwu_pack(g, 0);
  EXPECT_TRUE(respects_capacities(g, result.trees));
  EXPECT_GE(result.total_rate, 0.90 * optimal);
  EXPECT_LE(result.total_rate, optimal * (1.0 + 1e-6));
}

TEST(Mwu, ReturnsManyTreesBeforeMinimization) {
  // §3.2: the raw MWU packing on the 8-GPU DGX-1V returns on the order of a
  // hundred distinct trees (the paper reports 181), motivating the ILP.
  const auto g = dgx1v_graph();
  const auto result = mwu_pack(g, 0);
  EXPECT_GE(result.trees.size(), 20u);
  EXPECT_GE(result.iterations, static_cast<int>(result.trees.size()));
}

TEST(Mwu, ChainHasSingleTree) {
  const auto g = graph::nvlink_digraph(topo::make_chain(4));
  const auto result = mwu_pack(g, 0);
  ASSERT_EQ(result.trees.size(), 1u);
  EXPECT_NEAR(result.total_rate, optimal_rate(g, 0), 1e3);
}

TEST(Mwu, EmptyOnDisconnectedGraph) {
  const auto machine = topo::make_dgx1v();
  const std::vector<int> alloc{1, 4, 6};
  const auto g =
      graph::nvlink_digraph(topo::induced_topology(machine, alloc));
  const auto result = mwu_pack(g, 0);
  EXPECT_TRUE(result.trees.empty());
  EXPECT_DOUBLE_EQ(result.total_rate, 0.0);
}

TEST(Mwu, EveryTreeSpansAndRootsCorrectly) {
  const auto g = dgx1v_graph();
  for (const int root : {0, 3, 7}) {
    const auto result = mwu_pack(g, root);
    for (const auto& wt : result.trees) {
      EXPECT_EQ(wt.tree.root, root);
      EXPECT_TRUE(wt.tree.spans(g));
      EXPECT_GT(wt.weight, 0.0);
    }
  }
}

TEST(Mwu, EpsilonTradesTreeCountForAccuracy) {
  const auto g = dgx1v_graph();
  MwuOptions coarse;
  coarse.epsilon = 0.3;
  MwuOptions fine;
  fine.epsilon = 0.03;
  const auto coarse_result = mwu_pack(g, 0, coarse);
  const auto fine_result = mwu_pack(g, 0, fine);
  EXPECT_LT(coarse_result.iterations, fine_result.iterations);
}

void expect_same_bits(const MwuResult& got, const MwuResult& want,
                      const std::string& where) {
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_rate),
            std::bit_cast<std::uint64_t>(want.total_rate))
      << where;
  ASSERT_EQ(got.trees.size(), want.trees.size()) << where;
  for (std::size_t i = 0; i < got.trees.size(); ++i) {
    EXPECT_EQ(got.trees[i].tree.root, want.trees[i].tree.root) << where;
    EXPECT_EQ(got.trees[i].tree.edge_ids, want.trees[i].tree.edge_ids)
        << where << " tree " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.trees[i].weight),
              std::bit_cast<std::uint64_t>(want.trees[i].weight))
        << where << " tree " << i;
  }
}

// mwu_pack (flat solver, online merging) against the original loop over the
// reference solver, bit for bit, on the NVLink planning graph of every zoo
// shape in both capacity models (per-direction and undirected), from the
// first and last GPU. NVSwitch machines enter as 2/4/8-GPU boxes and DGX-2
// fragments: the whole 16-GPU DGX-2 would take minutes in sanitizer builds.
TEST(Mwu, MatchesReferenceOnZooShapes) {
  std::vector<topo::Topology> shapes = {topo::make_dgx1p(), topo::make_dgx1v(),
                                        topo::make_clique(5),
                                        topo::make_chain(4)};
  for (const int k : {2, 4, 8}) shapes.push_back(topo::zoo::make_nvswitch_box(k));
  for (const auto& server :
       topo::zoo::make_fat_tree_cluster(2, 2, 4, 5e9, 2.0).servers) {
    shapes.push_back(server);
  }
  for (const int k : {3, 5, 6}) {
    for (const auto& server :
         topo::zoo::make_mixed_fleet({topo::ServerKind::kDGX1P,
                                      topo::ServerKind::kDGX1V,
                                      topo::ServerKind::kDGX2},
                                     5e9, k)
             .servers) {
      shapes.push_back(server);
    }
  }
  Rng rng(15);
  for (const double density : {0.0, 0.4, 1.0}) {
    topo::zoo::RandomTopologyParams params;
    params.num_gpus = 6;
    params.link_density = density;
    params.max_lanes = 3;
    shapes.push_back(topo::zoo::make_random_topology(params, rng));
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& server : topo::zoo::make_random_fabric(seed).servers) {
      shapes.push_back(server);
    }
  }

  int packed = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& topo = shapes[s];
    for (const bool undirected : {false, true}) {
      const auto g = graph::nvlink_digraph(topo, undirected);
      for (const int root : {0, topo.num_gpus - 1}) {
        const std::string where = "shape " + std::to_string(s) + " (" +
                                  topo.name + ") undirected=" +
                                  std::to_string(undirected) + " root " +
                                  std::to_string(root);
        const auto got = mwu_pack(g, root);
        expect_same_bits(got, reference_mwu_pack(g, root), where);
        packed += got.trees.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(packed, 40);  // most shapes are NVLink-connected
}

TEST(Minimize, Dgx1vReducesToSixUnitTrees) {
  // §3.2.1: "reduces the number of trees from 181 to 6 for the 8-GPU case in
  // DGX-1V topology with each tree having a rate of 1.0".
  const auto g = dgx1v_graph();
  const auto candidates = mwu_pack(g, 0);
  const auto result = minimize_trees(g, 0, candidates.trees);
  EXPECT_EQ(result.trees.size(), 6u);
  EXPECT_EQ(result.stage, MinimizeStage::kIlp);
  const double lane = topo::kNvlinkGen2Bw;
  for (const auto& wt : result.trees) {
    EXPECT_NEAR(wt.weight, lane, 1e3);  // rate 1.0 in lane units
  }
  EXPECT_GE(result.total_rate, 0.95 * result.optimal);
  EXPECT_TRUE(respects_capacities(g, result.trees));
}

TEST(Minimize, NeverWorseThanThresholdWhenIlpSucceeds) {
  const auto machine = topo::make_dgx1v();
  for (const auto& alloc : {std::vector<int>{5, 6, 7},
                            std::vector<int>{4, 5, 6, 7},
                            std::vector<int>{1, 2, 4, 5, 6, 7}}) {
    const auto g =
        graph::nvlink_digraph(topo::induced_topology(machine, alloc));
    const auto candidates = mwu_pack(g, 0);
    const auto result = minimize_trees(g, 0, candidates.trees);
    EXPECT_TRUE(respects_capacities(g, result.trees));
    EXPECT_GE(result.total_rate, (1.0 - 0.05) * candidates.total_rate - 1e3)
        << "alloc size " << alloc.size();
    EXPECT_LE(result.trees.size(), candidates.trees.size());
  }
}

TEST(Minimize, EmptyCandidates) {
  const auto g = dgx1v_graph();
  const auto result = minimize_trees(g, 0, {});
  EXPECT_TRUE(result.trees.empty());
}

TEST(TightenFactor, ScalesToCapacityBoundary) {
  graph::DiGraph g(2);
  const int e = g.add_edge(0, 1, 10.0);
  graph::Arborescence arb{0, {e}};
  std::vector<WeightedTree> trees{{arb, 2.5}};
  EXPECT_DOUBLE_EQ(tighten_factor(g, trees), 4.0);
}

TEST(RespectsCapacities, DetectsViolation) {
  graph::DiGraph g(2);
  const int e = g.add_edge(0, 1, 10.0);
  graph::Arborescence arb{0, {e}};
  std::vector<WeightedTree> ok{{arb, 10.0}};
  std::vector<WeightedTree> bad{{arb, 10.1}};
  EXPECT_TRUE(respects_capacities(g, ok));
  EXPECT_FALSE(respects_capacities(g, bad, 1e-6));
}

// Property sweep: for every unique connected DGX-1V allocation, the final
// packing respects capacities and lands within 10% of Edmonds' optimum.
class PackingSweep : public ::testing::TestWithParam<int> {};

TEST_P(PackingSweep, NearOptimalOnAllUniqueConfigs) {
  const auto machine = topo::make_dgx1v();
  const auto bins =
      topo::unique_configs(machine, GetParam(), /*connected_only=*/true);
  for (const auto& bin : bins) {
    const auto t = topo::induced_topology(machine, bin.representative);
    const auto g = graph::nvlink_digraph(t);
    const double optimal = optimal_rate(g, 0);
    const auto candidates = mwu_pack(g, 0);
    const auto result = minimize_trees(g, 0, candidates.trees);
    EXPECT_TRUE(respects_capacities(g, result.trees));
    EXPECT_GE(result.total_rate, 0.90 * optimal)
        << "config " << ::testing::PrintToString(bin.representative);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackingSweep, ::testing::Values(3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace blink::packing
