#include "analysis/ascii_viz.h"

#include "common/assert.h"
#include "common/string_util.h"
#include "geometry/region.h"

namespace wsn {

namespace {

char role_glyph(const RelayPlan& plan, const RelayPlan* base, NodeId id,
                bool reached) {
  if (!reached) return '!';
  if (id == plan.source()) return 'S';
  const std::size_t txs = plan.offsets(id).size();
  if (txs == 0) return '.';
  if (base != nullptr) {
    const std::size_t base_txs = base->offsets(id).size();
    if (base_txs == 0) return '+';        // relay invented by the resolver
    if (txs > base_txs) return 'r';       // retransmission added by it
  }
  return txs > 1 ? 'R' : '#';
}

}  // namespace

std::string render_roles(const Grid2D& grid, const RelayPlan& plan,
                         const BroadcastOutcome* outcome,
                         const RelayPlan* base) {
  WSN_EXPECTS(plan.num_nodes() == grid.num_nodes());
  std::string out;
  for (int y = grid.n(); y >= 1; --y) {
    for (int x = 1; x <= grid.m(); ++x) {
      const NodeId id = grid.to_id({x, y});
      const bool reached =
          outcome == nullptr || outcome->first_rx[id] != kNeverSlot;
      out += role_glyph(plan, base, id, reached);
      if (x != grid.m()) out += ' ';
    }
    out += '\n';
  }
  return out;
}

std::string render_slots(const Grid2D& grid, const BroadcastOutcome& outcome) {
  // First-transmission slot per node; computed in one pass over the trace.
  std::vector<Slot> first_tx(grid.num_nodes(), kNeverSlot);
  for (const TxRecord& rec : outcome.transmissions) {
    if (first_tx[rec.node] == kNeverSlot) first_tx[rec.node] = rec.slot;
  }
  std::size_t width = 2;
  for (Slot s : first_tx) {
    if (s != kNeverSlot) {
      width = std::max(width, std::to_string(s).size());
    }
  }
  std::string out;
  for (int y = grid.n(); y >= 1; --y) {
    for (int x = 1; x <= grid.m(); ++x) {
      const Slot s = first_tx[grid.to_id({x, y})];
      out += pad_left(s == kNeverSlot ? std::string(".")
                                      : std::to_string(s),
                      width);
      if (x != grid.m()) out += ' ';
    }
    out += '\n';
  }
  return out;
}

std::string render_wavefront(const Grid2D& grid,
                             const BroadcastOutcome& outcome, Slot slot) {
  WSN_EXPECTS(outcome.first_rx.size() == grid.num_nodes());
  std::vector<char> glyph(grid.num_nodes(), '.');
  for (NodeId v = 0; v < grid.num_nodes(); ++v) {
    if (outcome.first_rx[v] < slot) glyph[v] = 'o';
  }
  for (const CollisionRecord& ev : outcome.collision_events) {
    if (ev.slot == slot) glyph[ev.node] = 'x';
  }
  for (const TxRecord& rec : outcome.transmissions) {
    if (rec.slot == slot) glyph[rec.node] = '*';
  }
  std::string out;
  for (int y = grid.n(); y >= 1; --y) {
    for (int x = 1; x <= grid.m(); ++x) {
      out += glyph[grid.to_id({x, y})];
      if (x != grid.m()) out += ' ';
    }
    out += '\n';
  }
  return out;
}

std::string render_roles_3d(const Grid3D& grid, const RelayPlan& plan, int z,
                            const BroadcastOutcome* outcome) {
  WSN_EXPECTS(plan.num_nodes() == grid.num_nodes());
  WSN_EXPECTS(z >= 1 && z <= grid.l());
  std::string out;
  for (int y = grid.n(); y >= 1; --y) {
    for (int x = 1; x <= grid.m(); ++x) {
      const NodeId id = grid.to_id({x, y, z});
      const bool reached =
          outcome == nullptr || outcome->first_rx[id] != kNeverSlot;
      out += role_glyph(plan, nullptr, id, reached);
      if (x != grid.m()) out += ' ';
    }
    out += '\n';
  }
  return out;
}

std::string render_regions_2d3(const Grid2D& grid, Vec2 source) {
  WSN_EXPECTS(grid.contains(source));
  std::string out;
  for (int y = grid.n(); y >= 1; --y) {
    for (int x = 1; x <= grid.m(); ++x) {
      if (Vec2{x, y} == source) {
        out += 'S';
      } else {
        out += static_cast<char>(
            '0' + static_cast<int>(region_of({x, y}, source)));
      }
      if (x != grid.m()) out += ' ';
    }
    out += '\n';
  }
  return out;
}

}  // namespace wsn
