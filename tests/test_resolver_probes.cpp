// The resolver's probe budget.  A counting simulator wrapped around the
// reference and bulk engines fingerprints every plan the resolver asks it
// to run: no plan may be simulated twice, a plan that needs no repair
// costs exactly one probe, and the outcome the resolver hands back is the
// one a fresh run of the returned plan produces, field for field.  On an
// engine with a re-probe a compile runs one full broadcast, and every
// later probe is a re-probe equal to a full run of its plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profile.h"
#include "protocol/cds_broadcast.h"
#include "protocol/gossip.h"
#include "protocol/implicit_plan.h"
#include "protocol/registry.h"
#include "protocol/resolver_core.h"
#include "sim/bulk/bulk_simulator.h"
#include "topology/factory.h"
#include "topology/random_geometric.h"

namespace wsn {
namespace {

std::uint64_t fingerprint(const RelayPlan& plan) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto add = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  add(plan.source());
  for (NodeId v = 0; v < plan.num_nodes(); ++v) {
    const std::span<const Slot> offsets = plan.offsets(v);
    add(offsets.size());
    for (const Slot offset : offsets) add(offset);
  }
  return digest;
}

/// Forwards to `Engine` and remembers the fingerprint of every plan run.
template <typename Engine>
struct CountingSim {
  template <typename Net>
  BroadcastOutcome run(const Net& net, const RelayPlan& plan,
                       const SimOptions& options) {
    runs.push_back(fingerprint(plan));
    return engine.run(net, plan, options);
  }

  [[nodiscard]] bool any_plan_twice() const {
    std::vector<std::uint64_t> sorted = runs;
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
  }

  Engine engine;
  std::vector<std::uint64_t> runs;
};

void expect_same_outcome(const BroadcastOutcome& fresh,
                         const BroadcastOutcome& returned) {
  EXPECT_EQ(fresh.stats.num_nodes, returned.stats.num_nodes);
  EXPECT_EQ(fresh.stats.reached, returned.stats.reached);
  EXPECT_EQ(fresh.stats.tx, returned.stats.tx);
  EXPECT_EQ(fresh.stats.rx, returned.stats.rx);
  EXPECT_EQ(fresh.stats.duplicates, returned.stats.duplicates);
  EXPECT_EQ(fresh.stats.collisions, returned.stats.collisions);
  EXPECT_EQ(fresh.stats.lost_to_fading, returned.stats.lost_to_fading);
  EXPECT_EQ(fresh.stats.lost_to_crash, returned.stats.lost_to_crash);
  EXPECT_EQ(fresh.stats.delay, returned.stats.delay);
  EXPECT_EQ(fresh.stats.tx_energy, returned.stats.tx_energy);  // bitwise
  EXPECT_EQ(fresh.stats.rx_energy, returned.stats.rx_energy);  // bitwise
  EXPECT_EQ(fresh.first_rx, returned.first_rx);
  ASSERT_EQ(fresh.transmissions.size(), returned.transmissions.size());
  for (std::size_t i = 0; i < fresh.transmissions.size(); ++i) {
    EXPECT_EQ(fresh.transmissions[i].slot, returned.transmissions[i].slot);
    EXPECT_EQ(fresh.transmissions[i].node, returned.transmissions[i].node);
    EXPECT_EQ(fresh.transmissions[i].delivered,
              returned.transmissions[i].delivered);
    EXPECT_EQ(fresh.transmissions[i].fresh, returned.transmissions[i].fresh);
  }
  ASSERT_EQ(fresh.collision_events.size(), returned.collision_events.size());
  for (std::size_t i = 0; i < fresh.collision_events.size(); ++i) {
    EXPECT_EQ(fresh.collision_events[i].slot,
              returned.collision_events[i].slot);
    EXPECT_EQ(fresh.collision_events[i].node,
              returned.collision_events[i].node);
    EXPECT_EQ(fresh.collision_events[i].contenders,
              returned.collision_events[i].contenders);
  }
  EXPECT_EQ(fresh.node_energy, returned.node_energy);  // bitwise
}

/// Resolves `raw` through a counting `Engine` and checks the probe budget
/// and the returned outcome.  Returns the number of probes.
template <typename Engine, typename Net>
std::size_t check_resolve(const Net& net, const RelayPlan& raw,
                          const SimOptions& options,
                          const std::string& what) {
  SCOPED_TRACE(what);
  CountingSim<Engine> counting;
  ResolveReport report;
  BroadcastOutcome returned;
  const RelayPlan plan = resolver_core::resolve_full_reachability(
      net, raw, options, &report, counting, &returned);
  EXPECT_FALSE(counting.any_plan_twice())
      << counting.runs.size() << " probes";
  EXPECT_EQ(counting.runs.back(), fingerprint(plan))
      << "the last probe is not of the returned plan";
  Engine fresh;
  expect_same_outcome(fresh.run(net, plan, options), returned);
  return counting.runs.size();
}

std::vector<SimOptions> reference_option_sets() {
  SimOptions energy;
  energy.record_node_energy = true;
  energy.charge_collisions = true;
  SimOptions collisions;
  collisions.record_collisions = true;
  return {SimOptions{}, energy, collisions};
}

TEST(ResolverProbes, ReferenceSimulatesEachPlanOnce) {
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    const auto protocol = make_paper_protocol(family);
    const std::size_t n = topo->num_nodes();
    for (const NodeId src :
         {NodeId{0}, static_cast<NodeId>(n / 3), static_cast<NodeId>(n - 1)}) {
      for (const SimOptions& options : reference_option_sets()) {
        (void)check_resolve<Simulator>(*topo, protocol->plan(*topo, src),
                                       options, family + " paper");
      }
    }
  }
  // Staggered CDS on 3D-6 from node 175 runs the optimistic phase out of
  // patience, so the resolver must fall back to its best plan.
  const auto cube = make_paper_topology("3D-6");
  (void)check_resolve<Simulator>(*cube, CdsBroadcast(2, 1).plan(*cube, 175),
                                 {}, "3D-6 staggered cds");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RandomGeometric topo(90, 8.0, 1.6, seed * 1000 + 7);
    (void)check_resolve<Simulator>(topo, Gossip(0.3, 3, seed).plan(topo, 0),
                                   {}, topo.name());
  }
}

TEST(ResolverProbes, BulkSimulatesEachPlanOnce) {
  const struct {
    const char* family;
    int m, n, l;
  } cases[] = {{"2D-3", 61, 43, 1},
               {"2D-4", 90, 71, 1},
               {"2D-8", 101, 77, 1},
               {"3D-6", 13, 11, 9}};
  for (const auto& c : cases) {
    const ImplicitLattice lat = ImplicitLattice::make(c.family, c.m, c.n, c.l);
    SimOptions energy;
    energy.record_node_energy = true;
    energy.charge_collisions = true;
    for (const SimOptions& options : {SimOptions{}, energy}) {
      (void)check_resolve<BulkSimulator>(
          lat, implicit_protocol_plan(lat, lat.central_node()), options,
          lat.name());
    }
  }
}

// The 2D-4 paper rules reach everyone without a repair: one probe, which
// is also the run the caller gets back.
TEST(ResolverProbes, CompletePlanCostsOneProbe) {
  const auto topo = make_paper_topology("2D-4");
  const auto protocol = make_paper_protocol("2D-4");
  for (NodeId src = 0; src < topo->num_nodes(); src += 37) {
    EXPECT_EQ(check_resolve<Simulator>(*topo, protocol->plan(*topo, src), {},
                                       "2D-4 paper"),
              1u);
  }
  const ImplicitLattice lat = ImplicitLattice::mesh2d4(200, 150);
  EXPECT_EQ(check_resolve<BulkSimulator>(
                lat, implicit_protocol_plan(lat, lat.central_node()), {},
                lat.name()),
            1u);
}

// The public entry points hand back the same outcome the resolver core
// does.
TEST(ResolverProbes, PublicEntryPointsReturnTheRunOfTheirPlan) {
  const auto topo = make_paper_topology("2D-8");
  BroadcastOutcome returned;
  const RelayPlan plan = paper_plan(*topo, 77, {}, nullptr, &returned);
  expect_same_outcome(simulate_broadcast(*topo, plan), returned);

  const ImplicitLattice lat = ImplicitLattice::mesh2d8(60, 40);
  BroadcastOutcome bulk_returned;
  const RelayPlan bulk_plan =
      implicit_paper_plan(lat, 1234, {}, nullptr, &bulk_returned);
  expect_same_outcome(bulk_simulate(lat, bulk_plan), bulk_returned);
}

/// BulkSimulator with its re-probe, counting full runs, re-probes and the
/// re-probes that fell back to a full run, and checking every re-probe
/// against a fresh full run of the plan it re-probed.
struct ReprobingSim {
  BroadcastOutcome run(const ImplicitLattice& lat, const RelayPlan& plan,
                       const SimOptions& options) {
    full_runs += 1;
    return engine.run(lat, plan, options);
  }

  BroadcastOutcome rerun(const ImplicitLattice& lat, const RelayPlan& plan,
                         std::span<const OffsetEdit> ran,
                         const BroadcastOutcome& prev,
                         const SimOptions& options) {
    reprobes += 1;
    const std::uint64_t before = full_spans();
    BroadcastOutcome out = engine.rerun(lat, plan, ran, prev, options);
    fallbacks += full_spans() - before;
    BulkSimulator fresh(lat.num_nodes());
    expect_same_outcome(fresh.run(lat, plan, options), out);
    return out;
  }

  static std::uint64_t full_spans() {
    for (const Profiler::SpanStats& span : Profiler::instance().snapshot()) {
      if (std::string_view(span.name) == "sim.bulk_simulate") {
        return span.count;
      }
    }
    return 0;
  }

  BulkSimulator engine;
  std::size_t full_runs = 0;
  std::size_t reprobes = 0;
  std::uint64_t fallbacks = 0;
};

// An implicit compile on an engine with a re-probe runs one full
// broadcast, of the raw plan; every later plan is a re-probe, equal to a
// full run of it.  A plan that needs no repair costs one full run and no
// re-probe.
TEST(ResolverReprobes, ImplicitCompileRunsOneFullBroadcast) {
  Profiler::instance().reset();
  Profiler::instance().set_enabled(true);
  const auto compile = [](const ImplicitLattice& lat, NodeId src,
                          const SimOptions& options) {
    SCOPED_TRACE(lat.name() + " from " + std::to_string(src));
    ReprobingSim sim;
    ResolveReport report;
    BroadcastOutcome returned;
    const RelayPlan plan = resolver_core::resolve_full_reachability(
        lat, implicit_protocol_plan(lat, src), options, &report, sim,
        &returned);
    EXPECT_EQ(sim.full_runs, 1u);
    EXPECT_EQ(sim.fallbacks, 0u);
    EXPECT_EQ(report.unrepaired, 0u);
    BulkSimulator fresh(lat.num_nodes());
    expect_same_outcome(fresh.run(lat, plan, options), returned);
    return sim.reprobes;
  };
  SimOptions energy;
  energy.record_node_energy = true;
  energy.charge_collisions = true;
  for (const ImplicitLattice& lat :
       {ImplicitLattice::make("2D-8", PaperConfig::kMesh2dM,
                              PaperConfig::kMesh2dN, 1),
        ImplicitLattice::make("3D-6", PaperConfig::kMesh3d,
                              PaperConfig::kMesh3d, PaperConfig::kMesh3d),
        ImplicitLattice::mesh2d8(256, 256),
        ImplicitLattice::mesh3d6(40, 40, 40)}) {
    const auto n = static_cast<NodeId>(lat.num_nodes());
    for (const NodeId src : {lat.central_node(), NodeId{0}, n / 3}) {
      for (const SimOptions& options : {SimOptions{}, energy}) {
        EXPECT_GE(compile(lat, src, options), 1u);
      }
    }
  }
  for (const ImplicitLattice& lat :
       {ImplicitLattice::make("2D-4", PaperConfig::kMesh2dM,
                              PaperConfig::kMesh2dN, 1),
        ImplicitLattice::mesh2d4(256, 256)}) {
    EXPECT_EQ(compile(lat, lat.central_node(), {}), 0u);
  }
  Profiler::instance().set_enabled(false);
  Profiler::instance().reset();
}

}  // namespace
}  // namespace wsn
