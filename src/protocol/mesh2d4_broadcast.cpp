#include "protocol/mesh2d4_broadcast.h"

#include <cstdint>
#include <cstdlib>

#include "common/assert.h"
#include "geometry/diagonal.h"

namespace wsn {

namespace {

/// (x - i) ≡ 0 (mod 3): x is one of the paper's i + 3k columns.
bool on_column_lattice(int x, int i) noexcept {
  return floor_mod(x - i, 3) == 0;
}

}  // namespace

bool Mesh2d4Broadcast::is_relay_column(int x, int i, int m) noexcept {
  if (on_column_lattice(x, i)) return true;
  // Border rule (§3.1): node (1, y) / (m, y) becomes a relay when column
  // 2 / m-1 is not a relay column, otherwise nobody ever covers column
  // 1 / m vertically.
  if (x == 1 && m >= 2 && !on_column_lattice(2, i)) return true;
  if (x == m && m >= 2 && !on_column_lattice(m - 1, i)) return true;
  return false;
}

bool Mesh2d4Broadcast::is_row_retransmitter(int x, int i, int m) noexcept {
  if (x < 1 || x > m) return false;
  if (x > i) return floor_mod(x - i, 3) == 1;  // x = i + 1 + 3k
  if (x < i) return floor_mod(i - x, 3) == 1;  // x = i - 1 - 3k
  return false;
}

std::size_t Mesh2d4Broadcast::analytic_tx_count(int i, int m,
                                                int n) noexcept {
  std::size_t columns = 0;
  std::size_t retransmitters = 0;
  for (int x = 1; x <= m; ++x) {
    if (is_relay_column(x, i, m)) ++columns;
    if (is_row_retransmitter(x, i, m)) ++retransmitters;
  }
  return static_cast<std::size_t>(m) + retransmitters +
         columns * static_cast<std::size_t>(n - 1);
}

double Mesh2d4Broadcast::analytic_relay_mean_etr(int i, int j, int m,
                                                 int n) noexcept {
  WSN_EXPECTS(i >= 1 && i <= m && j >= 1 && j <= n);
  const auto degree = [&](int x, int y) {
    return 4 - (x == 1) - (x == m) - (y == 1) - (y == n);
  };

  std::uint64_t acc = 0;  // sum of 840/deg(parent) over non-source-fed nodes
  for (int y = 1; y <= n; ++y) {
    for (int x = 1; x <= m; ++x) {
      if (x == i && y == j) continue;
      int px = 0;
      int py = 0;
      if (y == j) {
        // X-axis sweep: fed by the row neighbor toward the source.
        px = x > i ? x - 1 : x + 1;
        py = j;
      } else if (y == j - 1 || y == j + 1) {
        // Covered sideways by the row wavefront (the retransmitters'
        // second transmissions repair the cells their first ones collided
        // at, so the parent is the row node either way).
        px = x;
        py = j;
      } else if (is_relay_column(x, i, m)) {
        // Column sweep: previous cell of the same column.
        px = x;
        py = y > j ? y - 1 : y + 1;
      } else {
        // Fed sideways by an adjacent relay column.  The spacing-3 lattice
        // plus the border rule guarantees one exists; when both neighbors
        // are relay columns the one nearer the source column transmits
        // first (its sweep started earlier) and delivers the cell.
        int best = 0;
        for (const int c : {x - 1, x + 1}) {
          if (c < 1 || c > m || !is_relay_column(c, i, m)) continue;
          if (best == 0 || std::abs(c - i) < std::abs(best - i)) best = c;
        }
        WSN_ASSERT(best != 0);
        px = best;
        py = y;
      }
      if (px == i && py == j) continue;  // the source's own children
      acc += 840u / static_cast<std::uint64_t>(degree(px, py));
    }
  }

  const std::size_t relays = analytic_tx_count(i, m, n) - 1;
  return relays == 0 ? 0.0
                     : (static_cast<double>(acc) / 840.0) /
                           static_cast<double>(relays);
}

RelayPlan Mesh2d4Broadcast::plan_on_grid(const Grid2D& grid, NodeId source,
                                         CollisionPolicy policy) {
  const Vec2 src = grid.to_coord(source);

  RelayPlan::Writer plan(grid.num_nodes(), source);
  for (NodeId id = 0; id < grid.num_nodes(); ++id) {
    const Vec2 v = grid.to_coord(id);
    if (v.y == src.y) {
      // X-axis sweep: every row node forwards; the nodes straddling a relay
      // column collide with its first vertical hop and retransmit.
      if (policy == CollisionPolicy::kRetransmit &&
          is_row_retransmitter(v.x, src.x, grid.m())) {
        plan.set(id, {1, 2});
      } else {
        plan.set(id, {1});
      }
    } else if (is_relay_column(v.x, src.x, grid.m())) {
      // Y-axis sweeps.  Under the rejected delay-avoidance policy the first
      // vertical hop waits an extra slot so it never overlaps the row
      // wavefront (the paper's §3.1 alternative, kept for the ablation).
      const bool first_hop = std::abs(v.y - src.y) == 1;
      if (policy == CollisionPolicy::kDelayAvoidance && first_hop) {
        plan.set(id, {2});
      } else {
        plan.set(id, {1});
      }
    }
  }
  return std::move(plan).finish();
}

RelayPlan Mesh2d4Broadcast::plan(const Topology& topo, NodeId source) const {
  const auto* mesh = dynamic_cast<const Mesh2D4*>(&topo);
  WSN_EXPECTS(mesh != nullptr);
  return plan_on_grid(mesh->grid(), source, policy_);
}

std::string Mesh2d4Broadcast::name() const {
  return policy_ == CollisionPolicy::kRetransmit
             ? "mesh2d4-broadcast"
             : "mesh2d4-broadcast(delay-avoidance)";
}

}  // namespace wsn
