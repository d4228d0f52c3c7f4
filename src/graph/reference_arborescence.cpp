// The reference arborescence solver: the original recursive Chu-Liu/Edmonds
// contract-and-expand, one freshly built edge list per contraction level. It
// is kept unchanged as the bit-exact oracle for the flat solver in
// arborescence.cpp (arborescence_test's differential suite, packing_test's
// reference MWU runs and the fuzzer's treegen-oracle invariant compare the
// two).
#include <algorithm>
#include <cassert>
#include <deque>

#include "blink/graph/arborescence.h"

namespace blink::graph {
namespace {

struct WorkEdge {
  int u;
  int v;
  double w;
  int parent_index;  // index into the previous contraction level's edge list
};

// The solver's per-contraction-level scratch. One Level per recursion depth;
// a deque keeps references stable while deeper levels are appended
// mid-recursion.
struct Solver {
  struct Level {
    std::vector<int> best;               // per-vertex cheapest in-edge index
    std::vector<int> comp;               // per-vertex contraction component
    std::vector<int> mark;               // cycle-walk visit marks
    std::vector<std::vector<int>> cycles;
    std::vector<WorkEdge> contracted;    // edge list fed to the next level
    std::vector<int> result;             // picked indices into this level's edges
    std::vector<int> entered;            // per-cycle entry vertex
  };

  std::vector<WorkEdge> es;  // top-level edge list
  std::deque<Level> levels;

  Level& level(std::size_t depth) {
    while (levels.size() <= depth) levels.emplace_back();
    return levels[depth];
  }

  // One level of Chu-Liu/Edmonds: fills the level's result with indices
  // into |es| forming a minimum arborescence of the current (possibly
  // contracted) graph, returning a pointer to it, or nullptr when some
  // vertex is unreachable.
  const std::vector<int>* solve(std::size_t depth, int n, int root,
                                const std::vector<WorkEdge>& es);
};

const std::vector<int>* Solver::solve(std::size_t depth, int n, int root,
                                      const std::vector<WorkEdge>& es) {
  auto& lv = level(depth);
  auto& best = lv.best;
  best.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < static_cast<int>(es.size()); ++i) {
    const auto& e = es[static_cast<std::size_t>(i)];
    if (e.v == root || e.u == e.v) continue;
    const auto vi = static_cast<std::size_t>(e.v);
    if (best[vi] == -1 || e.w < es[static_cast<std::size_t>(best[vi])].w) {
      best[vi] = i;
    }
  }
  for (int v = 0; v < n; ++v) {
    if (v != root && best[static_cast<std::size_t>(v)] == -1) {
      return nullptr;  // v unreachable
    }
  }

  // Detect cycles in the functional graph v -> best-in-edge source.
  auto& comp = lv.comp;
  auto& mark = lv.mark;
  auto& cycles = lv.cycles;
  comp.assign(static_cast<std::size_t>(n), -1);
  mark.assign(static_cast<std::size_t>(n), -1);
  cycles.clear();
  for (int v = 0; v < n; ++v) {
    if (v == root) continue;
    int u = v;
    while (u != root && mark[static_cast<std::size_t>(u)] == -1 &&
           comp[static_cast<std::size_t>(u)] == -1) {
      mark[static_cast<std::size_t>(u)] = v;
      u = es[static_cast<std::size_t>(best[static_cast<std::size_t>(u)])].u;
    }
    if (u != root && comp[static_cast<std::size_t>(u)] == -1 &&
        mark[static_cast<std::size_t>(u)] == v) {
      // New cycle through u.
      std::vector<int> cyc;
      int x = u;
      do {
        cyc.push_back(x);
        comp[static_cast<std::size_t>(x)] = static_cast<int>(cycles.size());
        x = es[static_cast<std::size_t>(best[static_cast<std::size_t>(x)])].u;
      } while (x != u);
      cycles.push_back(std::move(cyc));
    }
  }

  auto& result = lv.result;
  if (cycles.empty()) {
    result.clear();
    result.reserve(static_cast<std::size_t>(n - 1));
    for (int v = 0; v < n; ++v) {
      if (v != root) result.push_back(best[static_cast<std::size_t>(v)]);
    }
    return &result;
  }

  // Contract every cycle into a supervertex.
  int next_id = static_cast<int>(cycles.size());
  for (int v = 0; v < n; ++v) {
    if (comp[static_cast<std::size_t>(v)] == -1) {
      comp[static_cast<std::size_t>(v)] = next_id++;
    }
  }
  auto& contracted = lv.contracted;
  contracted.clear();
  contracted.reserve(es.size());
  for (int i = 0; i < static_cast<int>(es.size()); ++i) {
    const auto& e = es[static_cast<std::size_t>(i)];
    const int cu = comp[static_cast<std::size_t>(e.u)];
    const int cv = comp[static_cast<std::size_t>(e.v)];
    if (cu == cv) continue;
    double w = e.w;
    if (cv < static_cast<int>(cycles.size())) {
      // Entering a cycle: swapping out the cycle's chosen in-edge of e.v.
      w -= es[static_cast<std::size_t>(best[static_cast<std::size_t>(e.v)])].w;
    }
    contracted.push_back({cu, cv, w, i});
  }

  const auto* sub = solve(depth + 1, next_id,
                          comp[static_cast<std::size_t>(root)], contracted);
  if (sub == nullptr) return nullptr;

  // Expand: selected contracted edges map to their original edges; each
  // cycle keeps all of its chosen in-edges except at the vertex where the
  // selected entering edge lands.
  result.clear();
  auto& entered = lv.entered;  // vertex where each cycle is entered
  entered.assign(cycles.size(), -1);
  for (const int ci : *sub) {
    const int orig = contracted[static_cast<std::size_t>(ci)].parent_index;
    result.push_back(orig);
    const int v = es[static_cast<std::size_t>(orig)].v;
    const int c = comp[static_cast<std::size_t>(v)];
    if (c < static_cast<int>(cycles.size())) entered[static_cast<std::size_t>(c)] = v;
  }
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    assert(entered[c] != -1 && "contracted solution must enter every cycle");
    for (const int x : cycles[c]) {
      if (x != entered[c]) {
        result.push_back(best[static_cast<std::size_t>(x)]);
      }
    }
  }
  return &result;
}

}  // namespace

std::optional<Arborescence> reference_min_cost_arborescence(
    const DiGraph& g, int root, std::span<const double> cost) {
  assert(static_cast<int>(cost.size()) == g.num_edges());
  assert(root >= 0 && root < g.num_vertices());
  if (g.num_vertices() == 1) return Arborescence{root, {}};

  Solver ws;
  ws.es.reserve(static_cast<std::size_t>(g.num_edges()));
  for (int id = 0; id < g.num_edges(); ++id) {
    const auto& e = g.edge(id);
    assert(cost[static_cast<std::size_t>(id)] >= 0.0);
    ws.es.push_back({e.src, e.dst, cost[static_cast<std::size_t>(id)], id});
  }
  const auto* picked = ws.solve(0, g.num_vertices(), root, ws.es);
  if (picked == nullptr) return std::nullopt;

  Arborescence arb;
  arb.root = root;
  arb.edge_ids.reserve(picked->size());
  for (const int i : *picked) {
    arb.edge_ids.push_back(ws.es[static_cast<std::size_t>(i)].parent_index);
  }
  std::sort(arb.edge_ids.begin(), arb.edge_ids.end());
  assert(arb.spans(g));
  return arb;
}

}  // namespace blink::graph
