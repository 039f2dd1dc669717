#include "protocol/registry.h"

#include "common/assert.h"
#include "obs/profile.h"
#include "protocol/mesh2d3_broadcast.h"
#include "protocol/mesh2d4_broadcast.h"
#include "protocol/mesh2d8_broadcast.h"
#include "protocol/mesh3d6_broadcast.h"

namespace wsn {

std::unique_ptr<BroadcastProtocol> make_paper_protocol(
    std::string_view family) {
  if (family == "2D-3") return std::make_unique<Mesh2d3Broadcast>();
  if (family == "2D-4") return std::make_unique<Mesh2d4Broadcast>();
  if (family == "2D-8") return std::make_unique<Mesh2d8Broadcast>();
  if (family == "3D-6") return std::make_unique<Mesh3d6Broadcast>();
  WSN_EXPECTS(false && "no paper protocol for this topology family");
  return nullptr;
}

RelayPlan paper_plan(const Topology& topo, NodeId source,
                     const SimOptions& options, ResolveReport* report,
                     BroadcastOutcome* outcome) {
  const auto protocol = make_paper_protocol(topo.family());
  RelayPlan plan = [&] {
    WSN_SPAN("plan.build");
    return protocol->plan(topo, source);
  }();
  WSN_SPAN("plan.resolve");
  return resolve_full_reachability(topo, std::move(plan), options, report,
                                   outcome);
}

}  // namespace wsn
