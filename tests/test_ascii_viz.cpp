#include "analysis/ascii_viz.h"

#include <gtest/gtest.h>

#include <sstream>

#include "protocol/mesh2d4_broadcast.h"
#include "protocol/registry.h"
#include "topology/mesh2d4.h"
#include "topology/mesh3d6.h"

namespace wsn {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(AsciiViz, RolesGridHasTopRowFirst) {
  const Mesh2D4 topo(4, 3);
  const Grid2D& g = topo.grid();
  const Mesh2d4Broadcast proto;
  const NodeId src = g.to_id({2, 2});
  const RelayPlan plan = proto.plan(topo, src);
  const auto lines = lines_of(render_roles(g, plan));
  ASSERT_EQ(lines.size(), 3u);           // n rows
  ASSERT_EQ(lines[0].size(), 4u * 2 - 1);  // m cells, space separated
  // The source sits in the middle row (y=2 renders second from top).
  EXPECT_NE(lines[1].find('S'), std::string::npos);
  EXPECT_EQ(lines[0].find('S'), std::string::npos);
}

TEST(AsciiViz, GlyphsDistinguishRoles) {
  const Mesh2D4 topo(16, 16);
  const Grid2D& g = topo.grid();
  const Mesh2d4Broadcast proto;
  const RelayPlan plan = proto.plan(topo, g.to_id({6, 8}));
  const std::string out = render_roles(g, plan);
  EXPECT_NE(out.find('S'), std::string::npos);  // source
  EXPECT_NE(out.find('#'), std::string::npos);  // relays
  EXPECT_NE(out.find('R'), std::string::npos);  // retransmitters
  EXPECT_NE(out.find('.'), std::string::npos);  // passive nodes
  EXPECT_EQ(out.find('!'), std::string::npos);  // nothing unreached shown
}

TEST(AsciiViz, UnreachedGlyphWithOutcome) {
  const Mesh2D4 topo(4, 1);
  RelayPlan plan = RelayPlan::empty(4, 0);  // nobody forwards
  const auto out = simulate_broadcast(topo, plan);
  const std::string viz = render_roles(topo.grid(), plan, &out);
  // Nodes 2 and 3 never receive.
  EXPECT_EQ(std::count(viz.begin(), viz.end(), '!'), 2);
}

TEST(AsciiViz, ResolverAdditionsMarked) {
  const Mesh2D4 line(6, 1);
  RelayPlan base = RelayPlan::empty(6, 0);
  base.set_offsets(1, {1});
  base.set_offsets(2, {1});
  base.set_offsets(4, {1});  // gap at node 3
  const RelayPlan resolved = resolve_full_reachability(line, base);
  const std::string viz = render_roles(line.grid(), resolved, nullptr, &base);
  // The resolver had to touch the gap region: either invent a relay ('+')
  // or add a retransmission ('r').
  const bool marked = viz.find('+') != std::string::npos ||
                      viz.find('r') != std::string::npos;
  EXPECT_TRUE(marked) << viz;
}

TEST(AsciiViz, SlotsRenderFirstTransmissions) {
  const Mesh2D4 topo(5, 1);
  RelayPlan plan = RelayPlan::empty(5, 0);
  for (NodeId v = 1; v < 5; ++v) plan.set_offsets(v, {1});
  const auto out = simulate_broadcast(topo, plan);
  const std::string viz = render_slots(topo.grid(), out);
  // Path: slots 1 2 3 4 5 left to right.
  EXPECT_EQ(viz, " 1  2  3  4  5\n");
}

TEST(AsciiViz, SlotsShowDotForSilentNodes) {
  const Mesh2D4 topo(3, 1);
  const RelayPlan plan = RelayPlan::empty(3, 0);
  const auto out = simulate_broadcast(topo, plan);
  const std::string viz = render_slots(topo.grid(), out);
  EXPECT_EQ(viz, " 1  .  .\n");
}

TEST(AsciiViz, WavefrontFramesShowTransmittersCollisionsAndHolders) {
  // 3x3 mesh, source in the center.  Slot 1: the source transmits.  Slot 2:
  // nodes 1 and 3 transmit together and collide at corner 0 and at the
  // source, which hear both; 5 and 7 already hold the message.
  const Mesh2D4 topo(3, 3);
  RelayPlan plan = RelayPlan::empty(9, 4);
  plan.set_offsets(1, {1});
  plan.set_offsets(3, {1});
  SimOptions options;
  options.record_collisions = true;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(render_wavefront(topo.grid(), out, 1), ". . .\n. * .\n. . .\n");
  EXPECT_EQ(render_wavefront(topo.grid(), out, 2), ". o .\n* x o\nx * .\n");
  // Slot 3 is past the last transmission: every reached node holds, and
  // corners 0 and 8, which never heard a lone transmitter, still wait.
  EXPECT_EQ(render_wavefront(topo.grid(), out, 3), "o o .\no o o\n. o o\n");
  // Without recorded collisions the corner waits and the source holds.
  const auto quiet = simulate_broadcast(topo, plan);
  EXPECT_EQ(render_wavefront(topo.grid(), quiet, 2), ". o .\n* o o\n. * .\n");
}

TEST(AsciiViz, Roles3DRendersOnePlane) {
  const Mesh3D6 topo(4, 4, 3);
  const RelayPlan plan = paper_plan(topo, topo.grid().to_id({2, 2, 2}));
  const std::string plane1 = render_roles_3d(topo.grid(), plan, 1);
  const std::string plane2 = render_roles_3d(topo.grid(), plan, 2);
  EXPECT_EQ(lines_of(plane1).size(), 4u);
  // The source glyph only appears in its own plane.
  EXPECT_EQ(plane1.find('S'), std::string::npos);
  EXPECT_NE(plane2.find('S'), std::string::npos);
}

TEST(AsciiViz, RegionsPartitionRendered) {
  const Grid2D grid(20, 14, 0.5);
  const std::string viz = render_regions_2d3(grid, {10, 7});
  EXPECT_NE(viz.find('1'), std::string::npos);
  EXPECT_NE(viz.find('2'), std::string::npos);
  EXPECT_NE(viz.find('3'), std::string::npos);
  EXPECT_NE(viz.find('S'), std::string::npos);
  // Straight below the source: region 2 -- bottom line contains '2' at
  // column 10.
  const auto lines = lines_of(viz);
  ASSERT_EQ(lines.size(), 14u);
  EXPECT_EQ(lines.back()[2 * (10 - 1)], '2');
  EXPECT_EQ(lines.front()[2 * (10 - 1)], '3');
}

}  // namespace
}  // namespace wsn
