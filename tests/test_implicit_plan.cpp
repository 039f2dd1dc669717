#include "protocol/implicit_plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/factory.h"

namespace wsn {
namespace {

void expect_same_plan(const RelayPlan& a, const RelayPlan& b) {
  EXPECT_EQ(a.source(), b.source());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.offsets(v), b.offsets(v))) << "node " << v;
  }
}

// The implicit path's whole value rests on this: raw plan AND resolver
// repairs equal the materialized paper_plan pipeline, node for node, slot
// for slot -- the resolver's decisions are forced by byte-identical
// neighbor sets and bit-identical probe outcomes.
TEST(ImplicitPlan, ResolvedPlanMatchesPaperPlan) {
  const struct {
    const char* family;
    int m, n, l;
  } cases[] = {{"2D-3", 9, 7, 1},  {"2D-3", 6, 10, 1}, {"2D-4", 8, 6, 1},
               {"2D-4", 11, 4, 1}, {"2D-8", 7, 7, 1},  {"2D-8", 10, 5, 1},
               {"3D-6", 4, 3, 5},  {"3D-6", 5, 5, 3}};
  for (const auto& c : cases) {
    const std::unique_ptr<Topology> topo =
        make_mesh(c.family, c.m, c.n, c.l);
    const ImplicitLattice lat =
        ImplicitLattice::make(c.family, c.m, c.n, c.l);
    const std::vector<NodeId> sources = {
        0, static_cast<NodeId>(topo->num_nodes() / 2),
        static_cast<NodeId>(topo->num_nodes() - 1)};
    for (const NodeId src : sources) {
      ResolveReport ref_report;
      ResolveReport bulk_report;
      const RelayPlan ref = paper_plan(*topo, src, {}, &ref_report);
      const RelayPlan bulk = implicit_paper_plan(lat, src, {}, &bulk_report);
      expect_same_plan(ref, bulk);
      EXPECT_EQ(ref_report.repairs, bulk_report.repairs);
      EXPECT_EQ(ref_report.rounds, bulk_report.rounds);
      EXPECT_EQ(ref_report.unrepaired, bulk_report.unrepaired);
    }
  }
}

TEST(ImplicitPlan, RawPlanMatchesProtocolPlan) {
  for (const std::string family : {"2D-3", "2D-4", "2D-8"}) {
    const std::unique_ptr<Topology> topo = make_mesh(family, 9, 6);
    const ImplicitLattice lat = ImplicitLattice::make(family, 9, 6);
    const auto protocol = make_paper_protocol(family);
    for (const NodeId src : {0u, 25u, 53u}) {
      expect_same_plan(protocol->plan(*topo, src),
                       implicit_protocol_plan(lat, src));
    }
  }
  const std::unique_ptr<Topology> topo = make_mesh("3D-6", 4, 5, 3);
  const ImplicitLattice lat = ImplicitLattice::make("3D-6", 4, 5, 3);
  const auto protocol = make_paper_protocol("3D-6");
  for (const NodeId src : {0u, 31u, 59u}) {
    expect_same_plan(protocol->plan(*topo, src),
                     implicit_protocol_plan(lat, src));
  }
}

TEST(ImplicitPlan, PaperDimsResolveToFullCoverage) {
  for (const std::string& family : regular_families()) {
    const ImplicitLattice lat =
        family == "3D-6"
            ? ImplicitLattice::mesh3d6(PaperConfig::kMesh3d,
                                       PaperConfig::kMesh3d,
                                       PaperConfig::kMesh3d,
                                       PaperConfig::kSpacing)
            : ImplicitLattice::make(family, PaperConfig::kMesh2dM,
                                    PaperConfig::kMesh2dN, 1,
                                    PaperConfig::kSpacing);
    const NodeId src = lat.central_node();
    const RelayPlan plan = implicit_paper_plan(lat, src);
    const BroadcastOutcome outcome = bulk_simulate(lat, plan);
    EXPECT_EQ(outcome.stats.reached, lat.num_nodes()) << family;
  }
}

}  // namespace
}  // namespace wsn
