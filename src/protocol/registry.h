#pragma once

#include <memory>
#include <string_view>

#include "protocol/broadcast_protocol.h"
#include "protocol/resolver.h"

/// Family-keyed access to the paper's protocols.
namespace wsn {

/// The paper's protocol for a topology family ("2D-3", "2D-4", "2D-8",
/// "3D-6").  Aborts on an unknown family.
[[nodiscard]] std::unique_ptr<BroadcastProtocol> make_paper_protocol(
    std::string_view family);

/// Convenience: builds the family's plan for `topo`/`source` and resolves
/// it to 100% reachability (the paper's full protocol: explicit rules plus
/// the predetermined collision repairs).  `report`, when non-null, receives
/// the resolver's repair counts; `outcome`, when non-null, the outcome of
/// simulating the plan under `options` (see resolve_full_reachability).
[[nodiscard]] RelayPlan paper_plan(const Topology& topo, NodeId source,
                                   const SimOptions& options = {},
                                   ResolveReport* report = nullptr,
                                   BroadcastOutcome* outcome = nullptr);

}  // namespace wsn
