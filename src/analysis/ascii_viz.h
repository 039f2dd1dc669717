#pragma once

#include <string>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"
#include "topology/mesh3d6.h"
#include "topology/topology.h"

/// ASCII renderings of broadcast schedules -- the terminal counterparts of
/// the paper's Figures 5, 7, 8 and 9.
///
/// Two views:
///   * `render_roles`   -- one glyph per node: 'S' source, '#' relay,
///     'R' retransmitting relay (the paper's gray nodes), '+' a relay added
///     by the resolver, '.' passive receiver, '!' unreached (never occurs
///     for the paper protocols after resolution).
///   * `render_slots`   -- each node's first transmission slot (the paper's
///     "numbers beside the edge are the transmission sequences"); '..' for
///     nodes that never transmit.
///   * `render_wavefront` -- one frame of a simulated broadcast: '*'
///     transmitting in that slot, 'x' a collision in it, 'o' already holding
///     the message, '.' still waiting.
///
/// 2D meshes render as the grid, row n at the top; the 3D mesh renders one
/// XY plane.
namespace wsn {

/// Role map of a 2D plan.  `outcome` may be null (only needed to show
/// unreached nodes); `base`, when given, is the pre-resolver plan, letting
/// resolver-added relays render as '+' and resolver-added retransmissions
/// as 'r'.
[[nodiscard]] std::string render_roles(const Grid2D& grid,
                                       const RelayPlan& plan,
                                       const BroadcastOutcome* outcome = nullptr,
                                       const RelayPlan* base = nullptr);

/// First-transmission slots of a simulated 2D broadcast, 2-3 chars per cell.
[[nodiscard]] std::string render_slots(const Grid2D& grid,
                                       const BroadcastOutcome& outcome);

/// The broadcast as it stands in `slot` (1-based), one glyph per node.
/// Collisions show only when the run set `SimOptions::record_collisions`.
[[nodiscard]] std::string render_wavefront(const Grid2D& grid,
                                           const BroadcastOutcome& outcome,
                                           Slot slot);

/// Role map of one XY plane (1-based `z`) of a 3D plan.
[[nodiscard]] std::string render_roles_3d(const Grid3D& grid,
                                          const RelayPlan& plan, int z,
                                          const BroadcastOutcome* outcome = nullptr);

/// The 2D-3 region partition (paper Fig. 8): '1'/'2'/'3' per node, 'S' at
/// the source.
[[nodiscard]] std::string render_regions_2d3(const Grid2D& grid, Vec2 source);

}  // namespace wsn
