#pragma once

#include "protocol/resolver.h"
#include "sim/bulk/bulk_simulator.h"
#include "sim/plan.h"
#include "topology/implicit.h"

/// Plan construction on an ImplicitLattice -- the bulk engine's analogue
/// of make_paper_protocol + paper_plan, with no Topology anywhere.
///
/// The protocol rules are purely coordinate-based (each plan_on_grid
/// consumes only a Grid2D/Grid3D value), so the raw plan is trivially
/// identical to the materialized path's.  Resolution runs the SAME
/// templated algorithm (protocol/resolver_core.h) with BulkSimulator
/// probes -- one full broadcast of the raw plan, then re-probes
/// (BulkSimulator::rerun); since bulk outcomes are bit-identical and
/// implicit neighbor sets byte-identical, the resolved plan equals
/// resolve_full_reachability on the materialized twin -- asserted per
/// family in tests/test_implicit_plan.cpp.  This is what lets a
/// 10⁶-node schedule be compiled and simulated in O(words) memory.
namespace wsn {

/// The family's raw protocol plan (paper rules only, no collision
/// repairs).  Aborts on families without a paper protocol (tori).
[[nodiscard]] RelayPlan implicit_protocol_plan(const ImplicitLattice& lat,
                                               NodeId source);

/// `plan` augmented with repair transmissions until a bulk simulation
/// under `options` reaches every node -- resolve_full_reachability with
/// BulkSimulator probes.  `options` must be on the bulk engine's supported
/// surface (BulkSimulator::options_supported).  `outcome`, when non-null,
/// receives the bulk outcome of the returned plan under `options`: the
/// resolver's last probe, what a BulkSimulator without a progress
/// callback would return for it.
[[nodiscard]] RelayPlan implicit_resolve_full_reachability(
    const ImplicitLattice& lat, RelayPlan plan,
    const SimOptions& options = {}, ResolveReport* report = nullptr,
    BroadcastOutcome* outcome = nullptr);

/// The full paper protocol on an implicit lattice: raw plan + resolver
/// repairs (mirrors paper_plan in protocol/registry.h).
[[nodiscard]] RelayPlan implicit_paper_plan(
    const ImplicitLattice& lat, NodeId source, const SimOptions& options = {},
    ResolveReport* report = nullptr, BroadcastOutcome* outcome = nullptr);

}  // namespace wsn
