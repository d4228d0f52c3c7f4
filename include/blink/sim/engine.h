// Max-min fair bandwidth sharing: the rate-allocation core of the fluid
// fabric simulator.
//
// Concurrent transfers on shared links (multiple spanning trees crossing one
// NVLink, PCIe flows funnelling through a PLX switch or QPI, NVSwitch pipes)
// split bandwidth the way pipelined DMA engines do in steady state: no flow
// can raise its rate without lowering that of an equally- or worse-off flow.
// That is exactly the max-min allocation computed by progressive filling.
#pragma once

#include <span>
#include <vector>

namespace blink::sim {

// A flow occupies every channel on its route simultaneously (a copy through
// the PCIe hierarchy holds GPU->PLX, PLX->CPU, ... at once); its rate is the
// minimum share granted on any of them.
struct FlowSpec {
  std::span<const int> route;  // channel indices; may be empty (infinite rate)
};

// Computes max-min fair rates for |flows| over channels with the given
// capacities (bytes/s). Returns one rate per flow; flows with empty routes
// get an infinite rate.
//
// Progressive filling runs separately in each connected component of flows
// (flows linked through shared channels): each component freezes its flows
// at its own fill levels, flows in ascending index order within a step, so
// a flow's rate depends only on its component and that component's order.
// This is what lets the executor re-fill just the components an event
// touches and still agree bit for bit. Each round costs
// O(channels + flows * route length); a component needs at most one round
// per distinct bottleneck level.
std::vector<double> max_min_rates(std::span<const double> channel_capacity,
                                  std::span<const FlowSpec> flows);

}  // namespace blink::sim
