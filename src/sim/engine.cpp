#include "blink/sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace blink::sim {

std::vector<double> max_min_rates(std::span<const double> channel_capacity,
                                  std::span<const FlowSpec> flows) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t num_channels = channel_capacity.size();
  const std::size_t num_flows = flows.size();

  std::vector<double> rate(num_flows, -1.0);
  std::vector<double> remaining(channel_capacity.begin(),
                                channel_capacity.end());
  std::vector<int> unset_on(num_channels, 0);
  for (const auto& f : flows) {
    for (const int c : f.route) {
      assert(c >= 0 && static_cast<std::size_t>(c) < num_channels);
      ++unset_on[static_cast<std::size_t>(c)];
    }
  }

  // Connected components: flows linked through shared channels. Each one is
  // filled on its own, with its own fill level, so the freeze tolerance
  // never couples flows that share nothing (and an incremental simulator
  // that re-fills only the components an event touched agrees bit for bit).
  std::vector<int> parent(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) parent[c] = static_cast<int>(c);
  auto find = [&](int c) {
    while (parent[static_cast<std::size_t>(c)] != c) {
      auto& p = parent[static_cast<std::size_t>(c)];
      p = parent[static_cast<std::size_t>(p)];
      c = p;
    }
    return c;
  };
  for (const auto& f : flows) {
    for (const int c : f.route) {
      const int a = find(f.route.front());
      const int b = find(c);
      if (a != b) parent[static_cast<std::size_t>(b)] = a;
    }
  }
  std::vector<int> component(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) {
    component[c] = find(static_cast<int>(c));
  }

  std::size_t flows_left = 0;
  for (std::size_t i = 0; i < num_flows; ++i) {
    if (flows[i].route.empty()) {
      rate[i] = kInf;
    } else {
      ++flows_left;
    }
  }

  // Progressive filling, per component: repeatedly saturate the channel
  // offering the smallest fair share and freeze the flows crossing it.
  // Components are independent, so advancing all of them one step per round
  // is the same as filling each to completion in turn.
  std::vector<double> fill(num_channels);
  while (flows_left > 0) {
    std::fill(fill.begin(), fill.end(), kInf);
    for (std::size_t c = 0; c < num_channels; ++c) {
      if (unset_on[c] > 0) {
        auto& level = fill[static_cast<std::size_t>(component[c])];
        level = std::min(level, remaining[c] / unset_on[c]);
      }
    }

    bool froze_any = false;
    for (std::size_t i = 0; i < num_flows; ++i) {
      if (rate[i] >= 0.0) continue;
      const double level = std::max(
          fill[static_cast<std::size_t>(component[static_cast<std::size_t>(
              flows[i].route.front())])],
          0.0);
      assert(level < kInf && "unset flows must cross some channel");
      bool bottlenecked = false;
      for (const int c : flows[i].route) {
        const auto cu = static_cast<std::size_t>(c);
        // Channels whose fair share equals the fill level saturate now.
        if (remaining[cu] - level * unset_on[cu] <=
            1e-9 * remaining[cu] + 1e-6) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rate[i] = level;
      froze_any = true;
      --flows_left;
      for (const int c : flows[i].route) {
        const auto cu = static_cast<std::size_t>(c);
        remaining[cu] -= level;
        if (remaining[cu] < 0.0) remaining[cu] = 0.0;
        --unset_on[cu];
      }
    }
    assert(froze_any && "progressive filling must make progress");
    if (!froze_any) break;  // defensive: avoid infinite loop in release builds
  }
  return rate;
}

}  // namespace blink::sim
