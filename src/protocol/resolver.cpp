#include "protocol/resolver.h"

#include "protocol/resolver_core.h"

namespace wsn {

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
