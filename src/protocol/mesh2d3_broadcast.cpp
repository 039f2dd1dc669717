#include "protocol/mesh2d3_broadcast.h"

#include <algorithm>

#include "common/assert.h"
#include "geometry/diagonal.h"
#include "geometry/region.h"

namespace wsn {

namespace {

/// Per-cell relay preference, rules R1-R4: which staircase family is in
/// charge of `v`.
bool prefers_b1(Vec2 v, Vec2 src, bool source_on_left) noexcept {
  switch (region_of(v, src)) {
    case Region::kOne: {
      // R1: B1 serves the upper-right / lower-left quadrants.
      return (v.x >= src.x && v.y >= src.y) || (v.x <= src.x && v.y <= src.y);
    }
    case Region::kTwo:
      return !source_on_left;  // R3/R4, wedge below the source
    case Region::kThree:
      return source_on_left;  // R3/R4, wedge above the source
  }
  return false;
}

bool prefers_b2(Vec2 v, Vec2 src, bool source_on_left) noexcept {
  switch (region_of(v, src)) {
    case Region::kOne: {
      // R2: B2 serves the upper-left / lower-right quadrants.
      return (v.x <= src.x && v.y >= src.y) || (v.x >= src.x && v.y <= src.y);
    }
    case Region::kTwo:
      return source_on_left;
    case Region::kThree:
      return !source_on_left;
  }
  return false;
}

/// Anchor columns x = i + 4k clipped to [1, m].
struct AnchorRange {
  int min;
  int max;

  [[nodiscard]] bool empty() const noexcept { return min > max; }
};
AnchorRange anchor_range(int i, int m) noexcept {
  return {1 + floor_mod(i - 1, 4), m - floor_mod(m - i, 4)};
}

}  // namespace

bool Mesh2d3Broadcast::in_b1_family(Vec2 v, Vec2 src) noexcept {
  const int r = floor_mod(s1_index(v) - s1_index(src), 4);
  return brick_has_up(src) ? (r == 0 || r == 1) : (r == 0 || r == 3);
}

bool Mesh2d3Broadcast::in_b2_family(Vec2 v, Vec2 src) noexcept {
  const int r = floor_mod(s2_index(v) - s2_index(src), 4);
  return brick_has_up(src) ? (r == 0 || r == 3) : (r == 0 || r == 1);
}

RelayPlan Mesh2d3Broadcast::plan_on_grid(const Grid2D& grid, NodeId source) {
  const Vec2 src = grid.to_coord(source);
  const int m = grid.m();
  const int n = grid.n();
  // Paper R3/R4: "the left side of the network, i.e. 1 ≤ i ≤ m/2".
  const bool on_left = 2 * src.x <= m;
  // d = +1 when the source row's parity has its vertical link upward; the
  // B1 pair is then {c, c+1} and the B2 pair {c, c-1} (§3.3).
  const int d = brick_has_up(src) ? 1 : -1;
  const AnchorRange anchors = anchor_range(src.x, m);

  // Transmissions from a family's staircases cover one diagonal index past
  // the pair on each side; cells beyond the clipped anchor range of their
  // *preferred* family fall to the other family ("responsibility" below).
  // These bounds say which diagonal indices each family can actually serve.
  const int b1_cover_lo = std::min(0, d) - 1;  // relative to pair base
  const int b1_cover_hi = std::max(0, d) + 1;
  const int s1_lo = anchors.min + src.y + b1_cover_lo;
  const int s1_hi = anchors.max + src.y + b1_cover_hi;
  const int s2_lo = anchors.min - src.y - b1_cover_hi;  // B2 pair mirrors B1
  const int s2_hi = anchors.max - src.y - b1_cover_lo;

  const auto b1_responsible = [&](Vec2 v) {
    return s2_index(v) < s2_lo || s2_index(v) > s2_hi;
  };
  const auto b2_responsible = [&](Vec2 v) {
    return s1_index(v) < s1_lo || s1_index(v) > s1_hi;
  };

  std::vector<char> relay(grid.num_nodes(), 0);
  for (int x = 1; x <= m; ++x) relay[grid.to_id({x, src.y})] = 1;

  // Walks one vertical branch (dy = ±1) of a staircase whose cells at row y
  // are x = base - s·y and x = base + d_pair - s·y (s = +1 for B1 staircases,
  // -1 for B2).  The branch relays contiguously from the source row out to
  // the farthest cell it must serve, so it is always seeded and connected.
  const auto walk_branch = [&](int base, int d_pair, int s, int dy,
                               auto&& serves) {
    int farthest = 0;  // |y - src.y| of the farthest served cell
    std::vector<Vec2> cells;
    for (int y = src.y + dy; y >= 1 && y <= n; y += dy) {
      for (int xx : {base - s * y, base + d_pair - s * y}) {
        const Vec2 v{xx, y};
        if (!grid.contains(v)) continue;
        cells.push_back(v);
        if (serves(v)) farthest = std::abs(y - src.y);
      }
    }
    for (const Vec2 v : cells) {
      if (std::abs(v.y - src.y) <= farthest) relay[grid.to_id(v)] = 1;
    }
  };

  for (int a = anchors.min; a <= anchors.max; a += 4) {
    // B1 staircase through anchor (a, j): pair {a+j, a+j+d}; cells at row y
    // satisfy x + y ∈ pair.
    const int c1 = a + src.y;
    const auto b1_serves = [&](Vec2 v) {
      return prefers_b1(v, src, on_left) || b1_responsible(v);
    };
    walk_branch(c1, d, +1, +1, b1_serves);
    walk_branch(c1, d, +1, -1, b1_serves);

    // B2 staircase: pair {a-j, a-j-d}; cells satisfy x - y ∈ pair.
    const int c2 = a - src.y;
    const auto b2_serves = [&](Vec2 v) {
      return prefers_b2(v, src, on_left) || b2_responsible(v);
    };
    walk_branch(c2, -d, -1, +1, b2_serves);
    walk_branch(c2, -d, -1, -1, b2_serves);
  }

  RelayPlan::Writer plan(grid.num_nodes(), source);
  for (NodeId id = 0; id < grid.num_nodes(); ++id) {
    if (!relay[id] || id == source) continue;  // the source sends at slot 1
    const Vec2 v = grid.to_coord(id);
    // B1 staircases start one slot late: their first step off the row
    // otherwise advances in lockstep with the row wavefront and the B2
    // starts, and the cells wedged between two same-slot transmitters
    // never decode anything.  Empirically this halves the stranded cells;
    // the remaining deterministic collisions are repaired by the resolver.
    const bool staircase_start =
        v.y == src.y + 1 || v.y == src.y - 1;
    if (staircase_start && in_b1_family(v, src)) {
      plan.set(id, {2});
    } else {
      plan.set(id, {1});
    }
  }
  return std::move(plan).finish();
}

RelayPlan Mesh2d3Broadcast::plan(const Topology& topo, NodeId source) const {
  const auto* mesh = dynamic_cast<const Mesh2D3*>(&topo);
  WSN_EXPECTS(mesh != nullptr);
  return plan_on_grid(mesh->grid(), source);
}

}  // namespace wsn
