#include "protocol/resolver.h"

#include "protocol/resolver_core.h"

namespace wsn {

bool within_two_hops(const Topology& topo, NodeId a, NodeId b) {
  return resolver_core::within_two_hops(topo, a, b);
}

RelayPlan resolve_full_reachability(const Topology& topo, RelayPlan plan,
                                    const SimOptions& caller_options,
                                    ResolveReport* report,
                                    BroadcastOutcome* outcome) {
  // One scratch-reusing simulator serves every probe of this resolve call;
  // plan compilation runs dozens of probes, all on the same topology.
  Simulator sim(topo.num_nodes());
  return resolver_core::resolve_full_reachability(
      topo, std::move(plan), caller_options, report, sim, outcome);
}

}  // namespace wsn
