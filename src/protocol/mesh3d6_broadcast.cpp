#include "protocol/mesh3d6_broadcast.h"

#include <cstdlib>
#include <deque>

#include "common/assert.h"
#include "geometry/lattice.h"
#include "protocol/mesh2d4_broadcast.h"

namespace wsn {

namespace {

std::size_t xy_index(Vec2 v, int m) noexcept {
  return static_cast<std::size_t>(v.y - 1) * static_cast<std::size_t>(m) +
         static_cast<std::size_t>(v.x - 1);
}

}  // namespace

std::vector<Vec2> Mesh3d6Broadcast::border_relays(Vec2 src_xy, int m, int n) {
  const std::vector<Vec2> uncovered = uncovered_by_zrelays(src_xy, m, n);
  if (uncovered.empty()) return {};

  const std::size_t cells = static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n);
  std::vector<char> is_uncovered(cells, 0);
  for (Vec2 u : uncovered) is_uncovered[xy_index(u, m)] = 1;

  // Multi-source BFS from the covered region across the plane's 4-neighbor
  // adjacency; the parent of each uncovered cell must transmit so the cell
  // receives.  Deterministic: covered seeds and neighbors in fixed order.
  std::vector<char> visited(cells, 0);
  std::vector<char> is_parent(cells, 0);
  std::deque<Vec2> queue;
  for (int y = 1; y <= n; ++y) {
    for (int x = 1; x <= m; ++x) {
      if (!is_uncovered[xy_index({x, y}, m)]) {
        visited[xy_index({x, y}, m)] = 1;
        queue.push_back({x, y});
      }
    }
  }
  const auto in_grid = [&](Vec2 v) {
    return v.x >= 1 && v.x <= m && v.y >= 1 && v.y <= n;
  };
  while (!queue.empty()) {
    const Vec2 v = queue.front();
    queue.pop_front();
    constexpr Vec2 kSteps[] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    for (Vec2 step : kSteps) {
      const Vec2 u = v + step;
      if (!in_grid(u) || visited[xy_index(u, m)]) continue;
      visited[xy_index(u, m)] = 1;
      is_parent[xy_index(v, m)] = 1;  // v delivers u
      queue.push_back(u);
    }
  }

  std::vector<Vec2> out;
  for (int y = 1; y <= n; ++y) {
    for (int x = 1; x <= m; ++x) {
      if (is_parent[xy_index({x, y}, m)]) out.push_back({x, y});
    }
  }
  return out;
}

RelayPlan Mesh3d6Broadcast::plan_on_grid(const Grid3D& grid, NodeId source) {
  const Vec3 src = grid.to_coord(source);
  const int m = grid.m();
  const int n = grid.n();
  const int l = grid.l();

  // Per-XY-cell roles, shared by every plane.
  const std::size_t cells = grid.plane_size();
  std::vector<char> is_zrelay(cells, 0);
  for (int y = 1; y <= n; ++y) {
    for (int x = 1; x <= m; ++x) {
      if (in_zrelay_lattice({x, y}, src.xy())) {
        is_zrelay[xy_index({x, y}, m)] = 1;
      }
    }
  }
  std::vector<char> is_border(cells, 0);
  if (l > 1) {
    for (Vec2 b : border_relays(src.xy(), m, n)) {
      is_border[xy_index(b, m)] = 1;
    }
  }

  RelayPlan::Writer plan(grid.num_nodes(), source);
  for (NodeId id = 0; id < grid.num_nodes(); ++id) {
    const Vec3 v = grid.to_coord(id);
    const std::size_t cell = xy_index(v.xy(), m);

    if (v.z == src.z) {
      // Part 1: the 2D-4 protocol inside the source plane.
      if (v.y == src.y) {
        if (Mesh2d4Broadcast::is_row_retransmitter(v.x, src.x, m)) {
          plan.set(id, {1, 2});
        } else {
          plan.set(id, {1});
        }
      } else if (Mesh2d4Broadcast::is_relay_column(v.x, src.x, m)) {
        plan.set(id, {1});
      } else if (l > 1 && is_zrelay[cell]) {
        // Pure z-relay in the source plane: forward one slot late to stay
        // clear of the in-plane wavefront (§3.4).
        plan.set(id, {2});
      }
    } else {
      if (is_zrelay[cell]) {
        const bool source_column_neighbor =
            v.x == src.x && v.y == src.y && std::abs(v.z - src.z) == 1;
        // The Z pair next to the source collided in slot 2 with the other
        // source neighbors; it retransmits two slots later (slot 4).
        if (source_column_neighbor) {
          plan.set(id, {1, 3});
        } else {
          plan.set(id, {1});
        }
      } else if (is_border[cell]) {
        // Border relay: "wait for two time slots and then forward".
        plan.set(id, {3});
      }
    }
  }
  return std::move(plan).finish();
}

RelayPlan Mesh3d6Broadcast::plan(const Topology& topo, NodeId source) const {
  const auto* mesh = dynamic_cast<const Mesh3D6*>(&topo);
  WSN_EXPECTS(mesh != nullptr);
  return plan_on_grid(mesh->grid(), source);
}

}  // namespace wsn
