#include "topology/implicit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "topology/factory.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"
#include "topology/mesh3d6.h"
#include "topology/torus.h"

namespace wsn {
namespace {

/// The implicit lattice's whole contract is byte parity with the
/// materialized topology: same neighbor lists (same order), same degrees,
/// same positions and bit-identical tx ranges.
void expect_parity(const Topology& topo, const ImplicitLattice& lat) {
  ASSERT_EQ(topo.num_nodes(), lat.num_nodes());
  EXPECT_EQ(topo.family(), lat.family());
  EXPECT_EQ(topo.name(), lat.name());
  EXPECT_EQ(topo.full_degree(), lat.full_degree());
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    const auto expected = topo.neighbors(v);
    const ImplicitLattice::NeighborSet got = lat.neighbors(v);
    ASSERT_EQ(expected.size(), got.size()) << "node " << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], got[i]) << "node " << v << " slot " << i;
    }
    EXPECT_EQ(topo.degree(v), lat.degree(v));
    const auto pos = topo.position(v);
    const auto ipos = lat.position(v);
    EXPECT_EQ(pos[0], ipos[0]);
    EXPECT_EQ(pos[1], ipos[1]);
    EXPECT_EQ(pos[2], ipos[2]);
    // Bitwise: the energy model squares this, so even one ulp would
    // desynchronize the bulk engine's tx_energy accumulation.
    EXPECT_EQ(topo.tx_range(v), lat.tx_range(v)) << "node " << v;
  }
}

// Dim sets chosen to cover interior, edge, corner and degenerate shapes:
// single row/column, width 2 (both border columns adjacent), odd/even
// parity mixes for the 2D-3 brick wall.
struct Dims {
  int m;
  int n;
};
const std::vector<Dims>& planar_dims() {
  static const std::vector<Dims> dims = {
      {1, 1}, {1, 5}, {5, 1}, {2, 2}, {2, 7}, {7, 2},
      {3, 3}, {4, 6}, {5, 5}, {8, 3}, {9, 7}, {32, 16}};
  return dims;
}

TEST(ImplicitLattice, Matches2D4Mesh) {
  for (const Dims d : planar_dims()) {
    expect_parity(Mesh2D4(d.m, d.n), ImplicitLattice::mesh2d4(d.m, d.n));
  }
}

TEST(ImplicitLattice, Matches2D8Mesh) {
  for (const Dims d : planar_dims()) {
    expect_parity(Mesh2D8(d.m, d.n), ImplicitLattice::mesh2d8(d.m, d.n));
  }
}

TEST(ImplicitLattice, Matches2D3Mesh) {
  for (const Dims d : planar_dims()) {
    expect_parity(Mesh2D3(d.m, d.n), ImplicitLattice::mesh2d3(d.m, d.n));
  }
}

TEST(ImplicitLattice, Matches3D6Mesh) {
  const int dims[][3] = {{1, 1, 1}, {1, 1, 4}, {3, 1, 2}, {2, 3, 4},
                         {3, 3, 3}, {4, 5, 3}, {8, 8, 8}};
  for (const auto& d : dims) {
    expect_parity(Mesh3D6(d[0], d[1], d[2]),
                  ImplicitLattice::mesh3d6(d[0], d[1], d[2]));
  }
}

TEST(ImplicitLattice, Matches2D4Torus) {
  const Dims dims[] = {{3, 3}, {3, 5}, {5, 3}, {4, 4}, {6, 9}, {16, 8}};
  for (const Dims d : dims) {
    expect_parity(Torus2D4(d.m, d.n), ImplicitLattice::torus2d4(d.m, d.n));
  }
}

TEST(ImplicitLattice, Matches2D8Torus) {
  const Dims dims[] = {{3, 3}, {3, 4}, {5, 3}, {4, 7}, {9, 6}, {12, 10}};
  for (const Dims d : dims) {
    expect_parity(Torus2D8(d.m, d.n), ImplicitLattice::torus2d8(d.m, d.n));
  }
}

TEST(ImplicitLattice, NonUniformSpacingKeepsRangeParity) {
  // 0.3 m is inexact in binary: (x-1)·s differences vary in the last ulp
  // across the grid, so tx_range genuinely differs node to node.  Parity
  // here proves the implicit path replays the reference arithmetic rather
  // than shortcutting to an analytic range.
  expect_parity(Mesh2D8(9, 7, 0.3), ImplicitLattice::mesh2d8(9, 7, 0.3));
  expect_parity(Mesh3D6(4, 3, 5, 0.3), ImplicitLattice::mesh3d6(4, 3, 5, 0.3));
}

TEST(ImplicitLattice, MatchesPaperConfigs) {
  for (const std::string& family : regular_families()) {
    const std::unique_ptr<Topology> topo = make_paper_topology(family);
    const ImplicitLattice lat =
        family == "3D-6"
            ? ImplicitLattice::mesh3d6(PaperConfig::kMesh3d,
                                       PaperConfig::kMesh3d,
                                       PaperConfig::kMesh3d,
                                       PaperConfig::kSpacing)
            : ImplicitLattice::make(family, PaperConfig::kMesh2dM,
                                    PaperConfig::kMesh2dN, 1,
                                    PaperConfig::kSpacing);
    expect_parity(*topo, lat);
  }
}

TEST(ImplicitLattice, CoordRoundTripAndAdjacency) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(4, 5, 3);
  for (NodeId v = 0; v < lat.num_nodes(); ++v) {
    EXPECT_EQ(lat.to_id(lat.to_coord(v)), v);
    for (const NodeId u : lat.neighbors(v)) {
      EXPECT_TRUE(lat.adjacent(u, v));  // symmetric
    }
    EXPECT_FALSE(lat.adjacent(v, v));
  }
}

TEST(ImplicitLattice, RulesCoverExactlyTheNeighborSet) {
  // The kernel consumes the rules directly; every neighbor must come from
  // exactly one valid rule (no duplicates to double-count a transmission).
  for (const std::string family : {"2D-3", "2D-4", "2D-8"}) {
    const ImplicitLattice lat = ImplicitLattice::make(family, 7, 6);
    for (NodeId v = 0; v < lat.num_nodes(); ++v) {
      const auto c = lat.to_coord(v);
      std::vector<NodeId> from_rules;
      for (const ShiftRule& rule : lat.rules()) {
        if (ImplicitLattice::rule_valid(rule, c)) {
          from_rules.push_back(static_cast<NodeId>(
              static_cast<std::int64_t>(v) + rule.delta));
        }
      }
      std::sort(from_rules.begin(), from_rules.end());
      EXPECT_TRUE(std::adjacent_find(from_rules.begin(), from_rules.end()) ==
                  from_rules.end());
      const ImplicitLattice::NeighborSet set = lat.neighbors(v);
      ASSERT_EQ(from_rules.size(), set.size());
      EXPECT_TRUE(std::equal(set.begin(), set.end(), from_rules.begin()));
    }
  }
}

// The bulk kernel's rule bitsets say, bit for bit, where each rule is
// valid; copies of a lattice share one set.
TEST(ImplicitLattice, RuleMasksMatchRuleValidity) {
  const ImplicitLattice lattices[] = {
      ImplicitLattice::mesh2d3(9, 7),   ImplicitLattice::mesh2d4(70, 3),
      ImplicitLattice::mesh2d8(13, 11), ImplicitLattice::mesh3d6(5, 4, 6),
      ImplicitLattice::torus2d4(7, 5),  ImplicitLattice::torus2d8(6, 5)};
  for (const ImplicitLattice& lat : lattices) {
    SCOPED_TRACE(lat.name());
    const std::span<const std::uint64_t> masks = lat.rule_masks();
    const std::size_t words = (lat.num_nodes() + 63) / 64;
    ASSERT_EQ(masks.size(), lat.rules().size() * words);
    for (std::size_t r = 0; r < lat.rules().size(); ++r) {
      for (std::size_t bit = 0; bit < words * 64; ++bit) {
        const std::uint64_t word = masks[r * words + bit / 64];
        const bool set = ((word >> (bit % 64)) & 1u) != 0;
        const bool valid =
            bit < lat.num_nodes() &&
            ImplicitLattice::rule_valid(
                lat.rules()[r], lat.to_coord(static_cast<NodeId>(bit)));
        ASSERT_EQ(set, valid) << "rule " << r << " node " << bit;
      }
    }
    const ImplicitLattice copy = lat;
    EXPECT_EQ(copy.rule_masks().data(), masks.data());
  }
}

// range_by_rule_set() is a promise the bulk kernel bills energy on: where
// it holds, nodes with the same valid rules have bit-identical ranges.
TEST(ImplicitLattice, RangeFollowsRuleSetWhereSpacingIsExact) {
  const ImplicitLattice exact[] = {
      ImplicitLattice::mesh2d3(17, 13),
      ImplicitLattice::mesh2d8(13, 14),
      ImplicitLattice::mesh2d8(13, 14, 2.5),
      ImplicitLattice::mesh3d6(9, 6, 11, 2.5),
      ImplicitLattice::torus2d4(7, 5, 0.3),
      ImplicitLattice::torus2d8(6, 5, 0.7)};
  for (const ImplicitLattice& lat : exact) {
    SCOPED_TRACE(lat.name() + " spacing " + std::to_string(lat.spacing()));
    EXPECT_TRUE(lat.range_by_rule_set());
    std::map<unsigned, Meters> by_rules;
    for (NodeId v = 0; v < lat.num_nodes(); ++v) {
      unsigned rule_set = 0;
      for (std::size_t r = 0; r < lat.rules().size(); ++r) {
        if (ImplicitLattice::rule_valid(lat.rules()[r], lat.to_coord(v))) {
          rule_set |= 1u << r;
        }
      }
      const auto [it, fresh] = by_rules.emplace(rule_set, lat.tx_range(v));
      if (!fresh) {
        EXPECT_EQ(it->second, lat.tx_range(v)) << "node " << v;
      }
    }
  }
  EXPECT_FALSE(ImplicitLattice::mesh2d8(13, 14, 0.3).range_by_rule_set());
  EXPECT_FALSE(ImplicitLattice::mesh3d6(9, 6, 11, 0.7).range_by_rule_set());
  // 0.1 m is inexact too, but 1..2 times it happen to round exactly.
  EXPECT_TRUE(ImplicitLattice::mesh2d4(2, 2, 0.1).range_by_rule_set());
  EXPECT_FALSE(ImplicitLattice::mesh2d4(3, 2, 0.1).range_by_rule_set());
}

TEST(ImplicitLattice, CentralNodeIsInGrid) {
  const ImplicitLattice lat = ImplicitLattice::mesh2d4(32, 16);
  EXPECT_LT(lat.central_node(), lat.num_nodes());
  const auto c = lat.to_coord(lat.central_node());
  EXPECT_EQ(c.x, 16);
  EXPECT_EQ(c.y, 8);
}

}  // namespace
}  // namespace wsn
