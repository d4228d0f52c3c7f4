#include "probes.h"

#include <bit>

#include "blink/packing/packing.h"
#include "trace.h"
#include "workloads.h"

namespace blinkbench {

void replay_packing(const blink::TreeSet& set, int workers,
                    LayerCounters& counters) {
  if (set.empty()) return;
  const blink::TreeGenOptions defaults;
  {
    Scope span("packing.optimal_rate");
    blink::packing::optimal_rate(set.graph, set.root, workers);
  }
  blink::packing::MwuResult mwu;
  {
    Scope span("packing.mwu");
    blink::packing::MwuOptions options;
    options.epsilon = defaults.mwu_epsilon;
    mwu = blink::packing::mwu_pack(set.graph, set.root, options);
  }
  blink::packing::MinimizeResult minimized;
  {
    Scope span("packing.minimize");
    blink::packing::MinimizeOptions options;
    options.threshold = defaults.minimize_threshold;
    options.max_workers = workers;
    minimized =
        blink::packing::minimize_trees(set.graph, set.root, mwu.trees, options);
  }
  counters.replays += 1;
  counters.mwu_iterations += mwu.iterations;
  if (minimized.stage == blink::packing::MinimizeStage::kRelaxed) {
    counters.relaxed += 1;
  }
  if (set.optimal_rate > 0.0) {
    counters.rate_frac_sum += set.rate / set.optimal_rate;
  }
}

bool within_edmonds_bound(const blink::TreeSet& set) {
  return set.empty() || set.rate <= set.optimal_rate * (1.0 + 1e-9);
}

void add_cache_stats(const blink::CollectiveEngine& engine,
                     LayerCounters& counters) {
  counters.cache_hits += static_cast<double>(engine.plan_cache().hits());
  counters.cache_misses += static_cast<double>(engine.plan_cache().misses());
}

void add_repair(const blink::RepairReport& report, LayerCounters& counters) {
  counters.repairs += 1;
  counters.dropped += static_cast<double>(report.dropped);
  counters.retained += static_cast<double>(report.retained);
  counters.recompiled += static_cast<double>(report.recompiled);
}

void repair_probe(blink::CollectiveEngine& engine, int channel,
                  const std::vector<std::shared_ptr<const blink::CollectivePlan>>&
                      plans,
                  const std::vector<double>& healthy, int cycles, int position,
                  Outcome& out) {
  blink::sim::HealthEvent degrade;
  degrade.kind = blink::sim::HealthEventKind::kDegradeLink;
  degrade.channel = channel;
  degrade.factor = 0.5;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    int slot = position;
    for (const auto& event : {degrade, blink::sim::HealthEvent{}}) {
      const std::int64_t t0 = Tracer::now_ns();
      blink::RepairReport report;
      {
        Scope span("engine.repair");
        report = engine.repair_plans(event);
      }
      out.repairs.push_back({seconds_since(t0), slot++, true});
      if (tracer().enabled()) add_repair(report, out.counters);
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const auto& p = *plans[i];
      std::shared_ptr<const blink::CollectivePlan> again;
      {
        Scope span("engine.lookup");
        again = engine.compile(p.kind(), p.bytes(), p.root(), p.backend());
      }
      if (std::bit_cast<std::uint64_t>(engine.execute(*again).seconds) !=
          std::bit_cast<std::uint64_t>(healthy[i])) {
        out.fail("restored plan differs from the healthy one");
      }
    }
  }
}

}  // namespace blinkbench
