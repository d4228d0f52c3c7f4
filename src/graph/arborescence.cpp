#include "blink/graph/arborescence.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>

namespace blink::graph {

std::vector<int> Arborescence::parents(const DiGraph& g) const {
  std::vector<int> parent(static_cast<std::size_t>(g.num_vertices()), -1);
  for (const int id : edge_ids) {
    parent[static_cast<std::size_t>(g.edge(id).dst)] = g.edge(id).src;
  }
  return parent;
}

int Arborescence::depth(const DiGraph& g) const {
  const auto parent = parents(g);
  int max_depth = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    int d = 0;
    for (int u = v; parent[static_cast<std::size_t>(u)] != -1;
         u = parent[static_cast<std::size_t>(u)]) {
      ++d;
    }
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

bool Arborescence::spans(const DiGraph& g) const {
  const int n = g.num_vertices();
  if (static_cast<int>(edge_ids.size()) != n - 1) return false;
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const int id : edge_ids) {
    ++indeg[static_cast<std::size_t>(g.edge(id).dst)];
  }
  if (indeg[static_cast<std::size_t>(root)] != 0) return false;
  for (int v = 0; v < n; ++v) {
    if (v != root && indeg[static_cast<std::size_t>(v)] != 1) return false;
  }
  // Acyclicity + in-degree as above implies every vertex reaches the root.
  const auto parent = parents(g);
  for (int v = 0; v < n; ++v) {
    int u = v;
    int steps = 0;
    while (u != root) {
      u = parent[static_cast<std::size_t>(u)];
      if (u < 0 || ++steps > n) return false;
    }
  }
  return true;
}

namespace {

template <typename T>
T* grown(std::vector<T>& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
  return v.data();
}

}  // namespace

// The solver's scratch. Nodes 0..n-1 are the graph's vertices; each cycle
// the chosen in-edges close is contracted into a new node n, n+1, ... whose
// children are the cycle's nodes, so a solve uses at most 2n-1 nodes. Every
// table is flat and only grows; each slot a solve reads was written earlier
// in the same solve.
struct ArborescenceWorkspace::Impl {
  enum : signed char { kUnseen = 0, kOnPath = 1, kSettled = 2 };

  // Per edge id: the weight after the subtractions of every cycle its head
  // has been contracted into so far.
  std::vector<double> w;
  // Per node.
  std::vector<int> link;         // union-find link toward the current node
  std::vector<int> parent;       // node it was contracted into, -1 if none
  std::vector<int> best;         // chosen in-edge (edge id)
  std::vector<double> best_w;    // its weight when chosen
  std::vector<int> in_begin;     // in-edges from other nodes:
  std::vector<int> in_end;       //   in_edges[in_begin, in_end)
  std::vector<int> kid_begin;    // a contracted node's cycle:
  std::vector<int> kid_end;      //   kids[kid_begin, kid_end)
  std::vector<signed char> state;
  std::vector<int> chosen;       // expansion: the node's in-edge in the tree
  // Lists, back to back.
  std::vector<int> in_edges;
  std::vector<int> kids;
  std::vector<int> path;  // the walk in progress

  // The current (outermost) node containing node |x|.
  int find(int x) {
    int* l = link.data();
    while (l[x] != x) {
      l[x] = l[l[x]];
      x = l[x];
    }
    return x;
  }

  bool solve(const DiGraph& g, int root, std::span<const double> cost,
             std::vector<int>& edge_ids);
  // Contracts the walk's nodes from |entry| to the end of the path into new
  // node |t| and chooses t's in-edge. False when no edge enters the cycle.
  bool contract(const DiGraph& g, int t, int entry);
};

bool ArborescenceWorkspace::Impl::contract(const DiGraph& g, int t,
                                           int entry) {
  link[static_cast<std::size_t>(t)] = t;
  parent[static_cast<std::size_t>(t)] = -1;
  kid_begin[static_cast<std::size_t>(t)] = static_cast<int>(kids.size());
  int x = -1;
  do {
    x = path.back();
    path.pop_back();
    kids.push_back(x);
    link[static_cast<std::size_t>(x)] = t;
    parent[static_cast<std::size_t>(x)] = t;
  } while (x != entry);
  kid_end[static_cast<std::size_t>(t)] = static_cast<int>(kids.size());

  // An edge entering the cycle at node c now stands for swapping out c's
  // chosen in-edge: its weight drops by that edge's. Edges from inside the
  // cycle are dropped.
  in_begin[static_cast<std::size_t>(t)] = static_cast<int>(in_edges.size());
  int b = -1;
  double bw = 0.0;
  for (int k = kid_begin[static_cast<std::size_t>(t)];
       k < kid_end[static_cast<std::size_t>(t)]; ++k) {
    const auto c = static_cast<std::size_t>(kids[static_cast<std::size_t>(k)]);
    const double a = best_w[c];
    for (int i = in_begin[c]; i < in_end[c]; ++i) {
      const int id = in_edges[static_cast<std::size_t>(i)];
      if (find(g.edge(id).src) == t) continue;
      const double wi = w[static_cast<std::size_t>(id)] - a;
      w[static_cast<std::size_t>(id)] = wi;
      in_edges.push_back(id);
      if (b < 0 || wi < bw || (wi == bw && id < b)) {
        b = id;
        bw = wi;
      }
    }
  }
  in_end[static_cast<std::size_t>(t)] = static_cast<int>(in_edges.size());
  best[static_cast<std::size_t>(t)] = b;
  best_w[static_cast<std::size_t>(t)] = bw;
  return b >= 0;
}

// Chu-Liu/Edmonds with the reference solver's tie-breaks. A node chooses
// its least-weight in-edge, the least edge id among equals: the reference's
// first strict minimum, since its edge lists keep edge-id order at every
// level. Where the reference contracts all of a level's cycles at once,
// this solver walks the chosen in-edges and contracts each cycle as soon as
// the walk closes it. The result is the same edge set: contracting a cycle
// changes only the new node's in-edge weights and choice, so every other
// cycle persists unchanged, and two contractions commute (they subtract
// from disjoint edges, and a new node's choice, a minimum over the same
// edges with the same weights, does not depend on which other cycles are
// already contracted). Every order thus reaches the same nested cycles,
// each edge's weight dropping by the same subtractions, inner to outer.
bool ArborescenceWorkspace::Impl::solve(const DiGraph& g, int root,
                                        std::span<const double> cost,
                                        std::vector<int>& edge_ids) {
  edge_ids.clear();
  const int n = g.num_vertices();
  if (n == 1) return true;
  const auto nodes = static_cast<std::size_t>(2 * n - 1);
  for (auto* v : {&link, &parent, &best, &in_begin, &in_end, &kid_begin,
                  &kid_end, &chosen}) {
    grown(*v, nodes);
  }
  grown(best_w, nodes);
  grown(state, nodes);
  std::copy(cost.begin(), cost.end(),
            grown(w, static_cast<std::size_t>(g.num_edges())));
  in_edges.clear();
  kids.clear();

  // Every vertex but the root chooses among its in-edges (edge-id order),
  // self-loops aside.
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    link[vi] = v;
    parent[vi] = -1;
    state[vi] = kUnseen;
    if (v == root) continue;
    in_begin[vi] = static_cast<int>(in_edges.size());
    int b = -1;
    for (const int id : g.in_edges(v)) {
      if (g.edge(id).src == v) continue;
      assert(cost[static_cast<std::size_t>(id)] >= 0.0);
      in_edges.push_back(id);
      if (b < 0 || w[static_cast<std::size_t>(id)] < best_w[vi]) {
        b = id;
        best_w[vi] = w[static_cast<std::size_t>(id)];
      }
    }
    in_end[vi] = static_cast<int>(in_edges.size());
    if (b < 0) return false;  // v unreachable
    best[vi] = b;
  }
  state[static_cast<std::size_t>(root)] = kSettled;

  // Walk from every vertex along the chosen in-edges, backwards, until the
  // walk reaches a settled node (one whose choices lead to the root). A walk
  // that meets its own path has closed a cycle: contract it and continue
  // from the new node.
  int next = n;
  for (int v = 0; v < n; ++v) {
    path.clear();
    int x = find(v);
    while (state[static_cast<std::size_t>(x)] != kSettled) {
      if (state[static_cast<std::size_t>(x)] == kOnPath) {
        const int t = next++;
        if (!contract(g, t, x)) return false;  // nothing enters the cycle
        state[static_cast<std::size_t>(t)] = kOnPath;
        path.push_back(t);
      } else {
        state[static_cast<std::size_t>(x)] = kOnPath;
        path.push_back(x);
      }
      x = find(g.edge(best[static_cast<std::size_t>(path.back())]).src);
    }
    for (const int p : path) state[static_cast<std::size_t>(p)] = kSettled;
  }

  // Expand, outermost nodes first: an uncontracted node keeps its chosen
  // in-edge; inside a contracted node, the child the node's in-edge lands
  // in takes that edge and every other child keeps its own choice.
  for (int t = next - 1; t >= 0; --t) {
    if (t == root) continue;
    const auto ti = static_cast<std::size_t>(t);
    if (parent[ti] < 0) chosen[ti] = best[ti];
    const int e = chosen[ti];
    if (t < n) {
      edge_ids.push_back(e);
      continue;
    }
    int entered = g.edge(e).dst;
    while (parent[static_cast<std::size_t>(entered)] != t) {
      entered = parent[static_cast<std::size_t>(entered)];
    }
    for (int k = kid_begin[ti]; k < kid_end[ti]; ++k) {
      const auto c = static_cast<std::size_t>(kids[static_cast<std::size_t>(k)]);
      chosen[c] = static_cast<int>(c) == entered ? e : best[c];
    }
  }
  std::sort(edge_ids.begin(), edge_ids.end());
  return true;
}

ArborescenceWorkspace::ArborescenceWorkspace() : impl_(new Impl) {}
ArborescenceWorkspace::~ArborescenceWorkspace() = default;
ArborescenceWorkspace::ArborescenceWorkspace(ArborescenceWorkspace&&) noexcept =
    default;
ArborescenceWorkspace& ArborescenceWorkspace::operator=(
    ArborescenceWorkspace&&) noexcept = default;

bool min_cost_arborescence(const DiGraph& g, int root,
                           std::span<const double> cost,
                           ArborescenceWorkspace& workspace,
                           std::vector<int>& edge_ids) {
  assert(static_cast<int>(cost.size()) == g.num_edges());
  assert(root >= 0 && root < g.num_vertices());
  if (workspace.impl_ == nullptr) {
    workspace.impl_ = std::make_unique<ArborescenceWorkspace::Impl>();
  }
  return workspace.impl_->solve(g, root, cost, edge_ids);
}

std::optional<Arborescence> min_cost_arborescence(
    const DiGraph& g, int root, std::span<const double> cost) {
  ArborescenceWorkspace workspace;
  Arborescence arb;
  arb.root = root;
  if (!min_cost_arborescence(g, root, cost, workspace, arb.edge_ids)) {
    return std::nullopt;
  }
  assert(arb.spans(g));
  return arb;
}

}  // namespace blink::graph
