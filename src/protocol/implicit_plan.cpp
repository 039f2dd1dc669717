#include "protocol/implicit_plan.h"

#include <utility>

#include "common/assert.h"
#include "obs/profile.h"
#include "protocol/mesh2d3_broadcast.h"
#include "protocol/mesh2d4_broadcast.h"
#include "protocol/mesh2d8_broadcast.h"
#include "protocol/mesh3d6_broadcast.h"
#include "protocol/resolver_core.h"
#include "topology/grid2d.h"
#include "topology/grid3d.h"

namespace wsn {

RelayPlan implicit_protocol_plan(const ImplicitLattice& lat, NodeId source) {
  WSN_SPAN("plan.build");
  const std::string& family = lat.family();
  if (family == "3D-6") {
    const Grid3D grid(lat.m(), lat.n(), lat.l(), lat.spacing());
    return Mesh3d6Broadcast::plan_on_grid(grid, source);
  }
  const Grid2D grid(lat.m(), lat.n(), lat.spacing());
  if (family == "2D-3") return Mesh2d3Broadcast::plan_on_grid(grid, source);
  if (family == "2D-4") return Mesh2d4Broadcast::plan_on_grid(grid, source);
  if (family == "2D-8") return Mesh2d8Broadcast::plan_on_grid(grid, source);
  WSN_EXPECTS(false && "no paper protocol for this lattice family");
  return RelayPlan::empty(lat.num_nodes(), source);
}

RelayPlan implicit_resolve_full_reachability(const ImplicitLattice& lat,
                                             RelayPlan plan,
                                             const SimOptions& options,
                                             ResolveReport* report,
                                             BroadcastOutcome* outcome) {
  std::string why;
  WSN_EXPECTS(BulkSimulator::options_supported(options, &why) &&
              "bulk resolver requires bulk-supported SimOptions");
  BulkSimulator sim(lat.num_nodes());
  return resolver_core::resolve_full_reachability(lat, std::move(plan),
                                                  options, report, sim,
                                                  outcome);
}

RelayPlan implicit_paper_plan(const ImplicitLattice& lat, NodeId source,
                              const SimOptions& options,
                              ResolveReport* report,
                              BroadcastOutcome* outcome) {
  RelayPlan plan = implicit_protocol_plan(lat, source);
  WSN_SPAN("plan.resolve");
  return implicit_resolve_full_reachability(lat, std::move(plan), options,
                                            report, outcome);
}

}  // namespace wsn
