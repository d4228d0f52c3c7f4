/// \file
/// Minimum-cost spanning arborescence (Chu-Liu/Edmonds), the inner step of
/// the MWU packing loop (§3.2): given per-edge lengths, find the cheapest
/// directed spanning tree rooted at r.
///
/// The solver walks the chosen in-edges and contracts each cycle as soon as a
/// walk closes it, over flat tables that a workspace recycles, so a solve
/// allocates nothing once the workspace has grown to the graph's size. Its
/// tie-break is fixed: a vertex (or contracted cycle) chooses its
/// least-weight in-edge, the least edge id among equals.
/// reference_min_cost_arborescence() is the original level-by-level solver,
/// kept as the bit-exact test and fuzz oracle.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "blink/graph/digraph.h"

namespace blink::graph {

class ArborescenceWorkspace;

/// A spanning arborescence as the list of edge ids into the owning DiGraph.
/// Every vertex except the root has exactly one incoming edge in the list.
struct Arborescence {
  /// The vertex every tree edge points away from.
  int root = 0;
  /// The n-1 tree edges, ids into the DiGraph (sorted when solved).
  std::vector<int> edge_ids;

  /// parent[v] = source vertex of v's incoming edge (-1 for the root).
  std::vector<int> parents(const DiGraph& g) const;
  /// Depth of the deepest vertex (root = 0).
  int depth(const DiGraph& g) const;
  /// True when the edges form a spanning arborescence of \p g rooted at root.
  bool spans(const DiGraph& g) const;
};

/// Minimum-total-cost arborescence rooted at \p root with \p cost[id] per
/// edge. Returns std::nullopt when no spanning arborescence exists (some
/// vertex is unreachable from the root). Costs must be non-negative.
std::optional<Arborescence> min_cost_arborescence(const DiGraph& g, int root,
                                                  std::span<const double> cost);

/// As above, solving into \p edge_ids (overwritten; sorted ascending) and
/// reusing \p workspace's buffers: allocation-free once both have grown to
/// the graph's size. Returns false, leaving \p edge_ids unspecified, when no
/// spanning arborescence exists. The result is the same edge set the
/// three-argument overload returns.
bool min_cost_arborescence(const DiGraph& g, int root,
                           std::span<const double> cost,
                           ArborescenceWorkspace& workspace,
                           std::vector<int>& edge_ids);

/// Reusable scratch for min_cost_arborescence: the per-node tables, the
/// in-edge lists and the contracted cycles live here and are recycled across
/// solves. One workspace per calling thread (it is not
/// synchronized). The MWU packing loop, which solves one arborescence per
/// iteration over the same graph, hoists a workspace across its iterations.
class ArborescenceWorkspace {
 public:
  /// An empty workspace; buffers grow on first use.
  ArborescenceWorkspace();
  /// Releases the buffers.
  ~ArborescenceWorkspace();
  /// Moves the buffers; the source is left empty but usable.
  ArborescenceWorkspace(ArborescenceWorkspace&&) noexcept;
  /// Moves the buffers; the source is left empty but usable.
  ArborescenceWorkspace& operator=(ArborescenceWorkspace&&) noexcept;

 private:
  /// The solver reads and grows the workspace's buffers.
  friend bool min_cost_arborescence(const DiGraph& g, int root,
                                    std::span<const double> cost,
                                    ArborescenceWorkspace& workspace,
                                    std::vector<int>& edge_ids);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The original recursive contract-and-expand solver: each level contracts
/// all of its cycles at once into a freshly built edge list, a vertex taking
/// the first strict minimum of its in-edges in list order. A test and
/// fuzz oracle only: min_cost_arborescence() must return exactly its edge
/// ids on every input.
std::optional<Arborescence> reference_min_cost_arborescence(
    const DiGraph& g, int root, std::span<const double> cost);

}  // namespace blink::graph
