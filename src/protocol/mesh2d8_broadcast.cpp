#include "protocol/mesh2d8_broadcast.h"

#include <algorithm>

#include "common/assert.h"
#include "geometry/diagonal.h"

namespace wsn {

namespace {

/// Number of grid nodes on S1(c) / S2(c) inside an m×n grid.
int s1_length(int c, int m, int n) noexcept {
  return std::max(0, std::min(m, c - 1) - std::max(1, c - n) + 1);
}
int s2_length(int c, int m, int n) noexcept {
  return std::max(0, std::min(m, c + n) - std::max(1, c + 1) + 1);
}

}  // namespace

bool Mesh2d8Broadcast::family_on_s2(Vec2 src, int m, int n) noexcept {
  const int feeder_s1 = s1_length(s1_index(src), m, n);
  const int feeder_s2 = s2_length(s2_index(src), m, n);
  // Family on S2 needs the S1 feeder; keep it (the paper's default) unless
  // the S2 feeder is strictly longer.
  return feeder_s1 >= feeder_s2;
}

RelayPlan Mesh2d8Broadcast::plan_on_grid(const Grid2D& grid, NodeId source) {
  const Vec2 src = grid.to_coord(source);
  const int m = grid.m();
  const int n = grid.n();
  const bool s2_family = family_on_s2(src, m, n);

  // The feeder's transmissions seed family diagonals at most 2 indices past
  // the feeder's own span; diagonals further out sit in *border wedges* the
  // paper never reaches.  We complete the scheme with border sweeps: relay
  // lines along the perimeter from each feeder endpoint toward the wedge's
  // corner, crossing (and thereby seeding) every wedge diagonal exactly
  // where it touches the border.
  const auto on_family_line = [&](Vec2 v) {
    return s2_family ? in_s2_family(v, s2_index(src), 5)
                     : in_s1_family(v, s1_index(src), 5);
  };
  // 0 = not on a sweep; otherwise the cell's forwarding offset.  The first
  // cell of a sweep waits one extra slot (the feeder endpoint's own family
  // diagonal departs simultaneously and would collide one cell ahead), and
  // so does the cell following a family crossing, for the same reason.
  std::vector<Slot> sweep_offset(grid.num_nodes(), 0);
  const auto sweep_to_corner = [&](Vec2 from, Vec2 corner) {
    Vec2 v = from;
    bool stagger = true;  // true right after the endpoint / a crossing
    while (v != corner) {
      if (v.x != corner.x && (v.y == 1 || v.y == n)) {
        v.x += corner.x > v.x ? 1 : -1;
      } else {
        v.y += corner.y > v.y ? 1 : -1;
      }
      sweep_offset[grid.to_id(v)] = stagger ? 2 : 1;
      stagger = on_family_line(v);
    }
  };
  Vec2 feeder_end_a;
  Vec2 feeder_end_b;
  if (s2_family) {
    // Feeder S1(i+j) runs ↘ from top-left end eA to bottom-right end eB.
    const int c = s1_index(src);
    feeder_end_a = {std::max(1, c - n), std::min(n, c - 1)};  // low s2 end
    feeder_end_b = {std::min(m, c - 1), std::max(1, c - m)};  // high s2 end
    sweep_to_corner(feeder_end_a, {1, n});  // seeds s2 below feeder reach
    sweep_to_corner(feeder_end_b, {m, 1});  // seeds s2 above feeder reach
  } else {
    // Feeder S2(i-j) runs ↗ from bottom-left end eA to top-right end eB.
    const int c = s2_index(src);
    feeder_end_a = {std::max(1, c + 1), std::max(1, 1 - c)};  // low s1 end
    feeder_end_b = {std::min(m, c + n), std::min(n, m - c)};  // high s1 end
    sweep_to_corner(feeder_end_a, {1, 1});  // seeds s1 below feeder reach
    sweep_to_corner(feeder_end_b, {m, n});  // seeds s1 above feeder reach
  }

  RelayPlan::Writer plan(grid.num_nodes(), source);
  for (NodeId id = 0; id < grid.num_nodes(); ++id) {
    const Vec2 v = grid.to_coord(id);
    const bool on_feeder = s2_family ? on_s1(v, s1_index(src))
                                     : on_s2(v, s2_index(src));
    const bool on_family = on_family_line(v);
    if (!on_feeder && !on_family && sweep_offset[id] == 0) continue;

    // Feeder nodes adjacent to the source retransmit once: their first
    // transmission collides with the family's first hop at the axis nodes
    // two steps out (paper: "we let node (i+1, j-1) retransmit").
    const bool near_source_feeder = on_feeder && chebyshev(v, src) == 1 &&
                                    v != src;
    // Feeder endpoints also retransmit: at a border endpoint the feeder and
    // its adjacent family seeds all receive from the same penultimate
    // feeder cell and transmit together, stranding the border sweep's first
    // cell behind a collision.
    const bool feeder_endpoint =
        on_feeder && (v == feeder_end_a || v == feeder_end_b) && v != src;
    if (near_source_feeder || feeder_endpoint) {
      plan.set(id, {1, 2});
    } else if (on_feeder || on_family) {
      plan.set(id, {1});
    } else {
      plan.set(id, {sweep_offset[id]});
    }
  }
  return std::move(plan).finish();
}

RelayPlan Mesh2d8Broadcast::plan(const Topology& topo, NodeId source) const {
  const auto* mesh = dynamic_cast<const Mesh2D8*>(&topo);
  WSN_EXPECTS(mesh != nullptr);
  return plan_on_grid(mesh->grid(), source);
}

}  // namespace wsn
