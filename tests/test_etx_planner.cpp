#include "protocol/etx_planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/link_estimator.h"
#include "fault/models.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"
#include "topology/mesh3d6.h"

namespace wsn {
namespace {

std::vector<std::unique_ptr<Topology>> paper_topologies() {
  std::vector<std::unique_ptr<Topology>> topos;
  topos.push_back(std::make_unique<Mesh2D4>(8, 8));
  topos.push_back(std::make_unique<Mesh2D8>(8, 8));
  topos.push_back(std::make_unique<Mesh2D3>(8, 8));
  topos.push_back(std::make_unique<Mesh3D6>(4, 4, 4));
  return topos;
}

TEST(EtxPlanner, PerfectLinksReduceToThePaperOptimum) {
  // The tentpole's regression anchor: with no quality annotation (all
  // links perfect) the ETX planner must reproduce the paper protocol's
  // plan cost exactly on every regular family -- same transmissions, full
  // coverage.  Tables 1-2 optimality then carries over verbatim.
  for (const auto& topo : paper_topologies()) {
    SCOPED_TRACE(topo->name());
    const NodeId source = 0;
    const RelayPlan geometric = paper_plan(*topo, source);
    const RelayPlan etx = etx_plan(*topo, source);
    Simulator sim;
    const BroadcastOutcome geo_out = sim.run(*topo, geometric, {});
    const BroadcastOutcome etx_out = sim.run(*topo, etx, {});
    EXPECT_TRUE(etx_out.stats.fully_reached());
    EXPECT_EQ(etx_out.stats.tx, geo_out.stats.tx);
    EXPECT_EQ(etx_out.stats.delay, geo_out.stats.delay);
  }
}

TEST(EtxPlanner, ExplicitPerfectQualityMatchesNoAnnotation) {
  const Mesh2D4 topo(8, 8);
  const std::vector<double> perfect(topo.num_directed_links(), 1.0);
  const RelayPlan bare = etx_plan(topo, 5);
  const RelayPlan annotated = etx_plan(topo, 5, perfect);
  EXPECT_EQ(bare, annotated);
}

TEST(EtxPlanner, LossyQualityStillCoversEveryone) {
  // Under a learned lossy annotation the greedy selection changes, but
  // the resolver backstop keeps the plan fully reachable on the ideal
  // medium -- coverage is never traded away at plan time.
  const Mesh2D4 topo(8, 8);
  IidLossModel probe(0.3, 0xabcdef);
  const std::vector<double> quality = estimate_link_quality(topo, probe);
  Simulator sim;
  for (const NodeId source : {NodeId{0}, NodeId{27}, NodeId{63}}) {
    const RelayPlan plan = etx_plan(topo, source, quality);
    const BroadcastOutcome out = sim.run(topo, plan, {});
    EXPECT_TRUE(out.stats.fully_reached()) << "source " << source;
  }
}

TEST(EtxPlanner, LossyPlanSpendsMoreTransmissionsThanPerfect) {
  // Redundancy against a 30% channel costs something: the quality-aware
  // plan schedules at least as many transmissions as the perfect-link
  // plan, never fewer.
  const Mesh2D4 topo(8, 8);
  IidLossModel probe(0.3, 0xabcdef);
  const std::vector<double> quality = estimate_link_quality(topo, probe);
  const RelayPlan perfect = etx_plan(topo, 0);
  const RelayPlan lossy = etx_plan(topo, 0, quality);
  EXPECT_GE(lossy.planned_tx(), perfect.planned_tx());
}

TEST(EtxPlanner, PlanningIsDeterministic) {
  const Mesh2D8 topo(7, 7);
  IidLossModel probe(0.2, 99);
  const std::vector<double> quality = estimate_link_quality(topo, probe);
  const RelayPlan a = etx_plan(topo, 3, quality);
  const RelayPlan b = etx_plan(topo, 3, quality);
  EXPECT_EQ(a, b);
}

TEST(EtxPlanner, RegistryNameAndInterface) {
  const EtxRelayPlanner planner;
  EXPECT_TRUE(planner.name().find("etx-planner") != std::string::npos);
  const Mesh2D3 topo(6, 6);
  const RelayPlan plan = planner.plan(topo, 0);
  EXPECT_EQ(plan.num_nodes(), topo.num_nodes());
}

}  // namespace
}  // namespace wsn
