#include "sim/bulk/bulk_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fault/models.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/torus.h"

namespace wsn {
namespace {

/// Full-outcome bitwise comparison: every stats counter, every TxRecord,
/// every first_rx slot, and the energy doubles compared with == (no
/// tolerance anywhere -- the bulk engine's contract is replication, not
/// approximation).
void expect_identical(const BroadcastOutcome& ref,
                      const BroadcastOutcome& bulk) {
  EXPECT_EQ(ref.stats.num_nodes, bulk.stats.num_nodes);
  EXPECT_EQ(ref.stats.tx, bulk.stats.tx);
  EXPECT_EQ(ref.stats.rx, bulk.stats.rx);
  EXPECT_EQ(ref.stats.duplicates, bulk.stats.duplicates);
  EXPECT_EQ(ref.stats.collisions, bulk.stats.collisions);
  EXPECT_EQ(ref.stats.reached, bulk.stats.reached);
  EXPECT_EQ(ref.stats.delay, bulk.stats.delay);
  EXPECT_EQ(ref.stats.lost_to_crash, bulk.stats.lost_to_crash);
  EXPECT_EQ(ref.stats.lost_to_fading, bulk.stats.lost_to_fading);
  EXPECT_EQ(ref.stats.tx_energy, bulk.stats.tx_energy);   // bitwise
  EXPECT_EQ(ref.stats.rx_energy, bulk.stats.rx_energy);   // bitwise
  ASSERT_EQ(ref.first_rx.size(), bulk.first_rx.size());
  EXPECT_EQ(ref.first_rx, bulk.first_rx);
  ASSERT_EQ(ref.transmissions.size(), bulk.transmissions.size());
  for (std::size_t i = 0; i < ref.transmissions.size(); ++i) {
    EXPECT_EQ(ref.transmissions[i].slot, bulk.transmissions[i].slot);
    EXPECT_EQ(ref.transmissions[i].node, bulk.transmissions[i].node);
    EXPECT_EQ(ref.transmissions[i].delivered,
              bulk.transmissions[i].delivered);
    EXPECT_EQ(ref.transmissions[i].fresh, bulk.transmissions[i].fresh);
  }
  EXPECT_EQ(ref.node_energy, bulk.node_energy);
}

/// `plan`'s lists written afresh, with no edit overlay.
RelayPlan written(const RelayPlan& plan) {
  RelayPlan::Writer out(plan.num_nodes(), plan.source());
  for (NodeId v = 0; v < plan.num_nodes(); ++v) out.set(v, plan.offsets(v));
  return std::move(out).finish();
}

/// Both engines agree on `plan` as given (edited lists included) and on
/// the same lists written afresh.
void cross_check(const Topology& topo, const ImplicitLattice& lat,
                 const RelayPlan& plan, const SimOptions& options = {}) {
  Simulator ref_sim(topo.num_nodes());
  BulkSimulator bulk_sim(lat.num_nodes());
  const RelayPlan fresh = written(plan);
  expect_identical(ref_sim.run(topo, plan, options),
                   bulk_sim.run(lat, plan, options));
  expect_identical(ref_sim.run(topo, fresh, options),
                   bulk_sim.run(lat, fresh, options));
}

/// Everybody forwards once: maximally collision-heavy, a stress test for
/// the SWAR counter and the wrap rules.
RelayPlan flooding_plan(std::size_t count, NodeId source) {
  RelayPlan::Writer plan(count, source);
  for (NodeId v = 0; v < count; ++v) plan.set(v, {1});
  return std::move(plan).finish();
}

// The tentpole acceptance check: the paper's own protocol (resolved to
// full reachability) replayed bit-exactly at paper dims, several seeded
// sources per family.
TEST(BulkSimulator, MatchesReferenceOnPaperTopologies) {
  std::mt19937 rng(20260808u);
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
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(topo->num_nodes() - 1));
    std::vector<NodeId> sources = {0,
                                   static_cast<NodeId>(topo->num_nodes() / 2),
                                   static_cast<NodeId>(topo->num_nodes() - 1),
                                   pick(rng), pick(rng)};
    for (const NodeId src : sources) {
      cross_check(*topo, lat, paper_plan(*topo, src));
    }
  }
}

/// Records come in slot order, ties by id, which is what lets
/// BroadcastOutcome::timeline_end read the last one.
void expect_slot_order(const BroadcastOutcome& outcome) {
  Slot end = 1;
  for (std::size_t i = 0; i < outcome.transmissions.size(); ++i) {
    const TxRecord& rec = outcome.transmissions[i];
    if (i > 0) {
      const TxRecord& prev = outcome.transmissions[i - 1];
      ASSERT_TRUE(prev.slot < rec.slot ||
                  (prev.slot == rec.slot && prev.node < rec.node))
          << "record " << i;
    }
    end = std::max(end, rec.slot);
  }
  EXPECT_EQ(outcome.timeline_end(), end);
}

TEST(TimelineEnd, RecordsAreInSlotOrderOnBothEngines) {
  EXPECT_EQ(BroadcastOutcome{}.timeline_end(), 1u);
  for (const std::string& family : regular_families()) {
    SCOPED_TRACE(family);
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
    const std::size_t n = topo->num_nodes();
    const RelayPlan plan = paper_plan(*topo, static_cast<NodeId>(n / 2));

    Simulator ref(n);
    expect_slot_order(ref.run(*topo, plan));
    // Faded and crashed transmissions leave gaps, never disorder.
    GilbertElliottModel bursty = GilbertElliottModel::from_mean_loss(0.2, 4, 7);
    CrashScheduleModel crashes = CrashScheduleModel::sample(n, 0.05, 16, 4, 9);
    CompositeFaultModel faults({&bursty, &crashes});
    SimOptions faulted;
    faulted.faults = &faults;
    expect_slot_order(ref.run(*topo, plan, faulted));

    BulkSimulator bulk(n);
    const BroadcastOutcome prev = bulk.run(lat, plan);
    expect_slot_order(prev);
    // A re-probe merges a late extra send of the first relay back in.
    const TxRecord& first = prev.transmissions.front();
    const std::span<const Slot> ran = plan.offsets(first.node);
    ASSERT_FALSE(ran.empty());
    const std::vector<Slot> before(ran.begin(), ran.end());
    RelayPlan after = plan;
    after.append_offset(first.node,
                        before.back() + 3 * (prev.timeline_end() + 1));
    const OffsetEdit edit{first.node, before};
    const BroadcastOutcome edited =
        bulk.rerun(lat, after, std::span<const OffsetEdit>(&edit, 1), prev);
    expect_slot_order(edited);
    EXPECT_GT(edited.timeline_end(), prev.timeline_end());
  }
}

TEST(BulkSimulator, MatchesReferenceFloodingOnMeshes) {
  const struct {
    const char* family;
    int m, n, l;
  } cases[] = {{"2D-3", 9, 7, 1}, {"2D-4", 8, 6, 1},
               {"2D-8", 7, 7, 1}, {"3D-6", 4, 3, 5}};
  for (const auto& c : cases) {
    const std::unique_ptr<Topology> topo =
        make_mesh(c.family, c.m, c.n, c.l);
    const ImplicitLattice lat =
        ImplicitLattice::make(c.family, c.m, c.n, c.l);
    cross_check(*topo, lat, flooding_plan(topo->num_nodes(), 0));
    cross_check(*topo, lat,
                flooding_plan(topo->num_nodes(),
                              static_cast<NodeId>(topo->num_nodes() / 2)));
  }
}

TEST(BulkSimulator, MatchesReferenceFloodingOnTori) {
  {
    const Torus2D4 topo(7, 5);
    const ImplicitLattice lat = ImplicitLattice::torus2d4(7, 5);
    cross_check(topo, lat, flooding_plan(topo.num_nodes(), 11));
  }
  {
    const Torus2D8 topo(6, 5);
    const ImplicitLattice lat = ImplicitLattice::torus2d8(6, 5);
    cross_check(topo, lat, flooding_plan(topo.num_nodes(), 0));
    cross_check(topo, lat, flooding_plan(topo.num_nodes(), 29));
  }
}

// Seeded random plans: arbitrary relay subsets with arbitrary strictly
// increasing offsets probe slot dynamics no paper protocol produces
// (gaps, far-ahead scheduling, silent relays).
TEST(BulkSimulator, MatchesReferenceOnSeededRandomPlans) {
  std::mt19937 rng(7u);
  const struct {
    const char* family;
    int m, n, l;
  } cases[] = {{"2D-3", 6, 8, 1}, {"2D-4", 9, 5, 1},
               {"2D-8", 5, 9, 1}, {"3D-6", 3, 4, 4}};
  for (const auto& c : cases) {
    const std::unique_ptr<Topology> topo =
        make_mesh(c.family, c.m, c.n, c.l);
    const ImplicitLattice lat =
        ImplicitLattice::make(c.family, c.m, c.n, c.l);
    const auto count = topo->num_nodes();
    std::uniform_int_distribution<NodeId> pick_src(
        0, static_cast<NodeId>(count - 1));
    std::uniform_int_distribution<int> relay_die(0, 3);
    std::uniform_int_distribution<Slot> gap(1, 3);
    for (int trial = 0; trial < 4; ++trial) {
      RelayPlan plan = RelayPlan::empty(count, pick_src(rng));
      for (NodeId v = 0; v < count; ++v) {
        if (v != plan.source() && relay_die(rng) == 0) continue;
        Slot offset = 0;
        std::vector<Slot> offsets;
        const int hops = 1 + relay_die(rng) % 2;
        for (int k = 0; k < hops; ++k) {
          offset += gap(rng);
          offsets.push_back(offset);
        }
        plan.set_offsets(v, offsets);
      }
      cross_check(*topo, lat, plan);
    }
  }
}

// Mostly plain relays ({1}), which the kernel forwards a word at a time,
// mixed with other relays whose offsets reach about 40 slots: the calendar
// path, long quiet stretches with no transmitter at all, and plain and
// calendar transmitters sharing a slot.
TEST(BulkSimulator, MatchesReferenceOnPlansMixingPlainAndOtherRelays) {
  std::mt19937 rng(27u);
  const struct {
    const char* family;
    int m, n, l;
  } cases[] = {{"2D-3", 13, 9, 1}, {"2D-4", 70, 3, 1},
               {"2D-8", 11, 12, 1}, {"3D-6", 5, 4, 6}};
  std::size_t gaps = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.family);
    const std::unique_ptr<Topology> topo = make_mesh(c.family, c.m, c.n, c.l);
    const ImplicitLattice lat = ImplicitLattice::make(c.family, c.m, c.n, c.l);
    const auto count = topo->num_nodes();
    std::uniform_int_distribution<NodeId> pick_src(
        0, static_cast<NodeId>(count - 1));
    std::uniform_int_distribution<int> role(0, 9);
    std::uniform_int_distribution<Slot> first(1, 40);
    std::uniform_int_distribution<Slot> gap(1, 12);
    for (int trial = 0; trial < 6; ++trial) {
      RelayPlan plan = RelayPlan::empty(count, pick_src(rng));
      for (NodeId v = 0; v < count; ++v) {
        const int r = role(rng);
        if (r < 5) {
          plan.set_offsets(v, {1});
        } else if (r < 8) {
          std::vector<Slot> offsets{first(rng)};
          for (int k = role(rng) % 3; k > 0; --k) {
            offsets.push_back(offsets.back() + gap(rng));
          }
          plan.set_offsets(v, offsets);
        } else if (v != plan.source()) {
          plan.clear_offsets(v);
        }
      }
      cross_check(*topo, lat, plan);
      const BroadcastOutcome ref = simulate_broadcast(*topo, plan);
      for (std::size_t i = 1; i < ref.transmissions.size(); ++i) {
        if (ref.transmissions[i].slot > ref.transmissions[i - 1].slot + 1) {
          ++gaps;
        }
      }
    }
  }
  EXPECT_GT(gaps, 0u);  // the plans do leave slots with no transmitter
}

TEST(BulkSimulator, MaxSlotsTruncationMatches) {
  const std::unique_ptr<Topology> topo = make_mesh("2D-4", 12, 9);
  const ImplicitLattice lat = ImplicitLattice::mesh2d4(12, 9);
  const RelayPlan plan = paper_plan(*topo, 30);
  for (const Slot cap : {0u, 1u, 3u, 7u}) {
    SimOptions options;
    options.max_slots = cap;
    cross_check(*topo, lat, plan, options);
  }
}

// A plain relay first receives in slot s and forwards in s + 1; a cap of
// s must stop the run between the two, at every s of the broadcast.
TEST(BulkSimulator, MaxSlotsBetweenPlainReceptionAndForwardMatches) {
  const std::unique_ptr<Topology> topo = make_mesh("2D-8", 9, 8);
  const ImplicitLattice lat = ImplicitLattice::mesh2d8(9, 8);
  RelayPlan plan = flooding_plan(topo->num_nodes(), 40);
  plan.set_offsets(13, {2, 5});  // one calendar relay among the plain ones
  const BroadcastOutcome full = simulate_broadcast(*topo, plan);
  ASSERT_GT(full.stats.delay, 2u);
  for (Slot cap = 0; cap <= full.stats.delay + 1; ++cap) {
    SCOPED_TRACE(cap);
    SimOptions options;
    options.max_slots = cap;
    cross_check(*topo, lat, plan, options);
    const BroadcastOutcome capped = bulk_simulate(lat, plan, options);
    // Relays that first heard in the last slot are reached but silent.
    if (cap >= 1 && cap <= full.stats.delay) {
      EXPECT_TRUE(std::any_of(capped.first_rx.begin(), capped.first_rx.end(),
                              [cap](Slot s) { return s == cap; }));
    }
    for (const TxRecord& rec : capped.transmissions) {
      EXPECT_LE(rec.slot, cap);
    }
  }
}

TEST(BulkSimulator, ChargeCollisionsAndNodeEnergyMatch) {
  const std::unique_ptr<Topology> topo = make_mesh("2D-8", 8, 8);
  const ImplicitLattice lat = ImplicitLattice::mesh2d8(8, 8);
  SimOptions options;
  options.charge_collisions = true;
  options.record_node_energy = true;
  cross_check(*topo, lat, flooding_plan(topo->num_nodes(), 27), options);
  cross_check(*topo, lat, paper_plan(*topo, 27), options);
}

// Per-transmitter delivered/fresh counts and per-node energy under
// collision charging, against the reference, on every lattice the bulk
// engine supports: the four paper families and both tori at the smallest
// dims their factories accept, with and without a slot cap.
TEST(BulkSimulator, AttributionAndNodeEnergyMatchOnEveryLattice) {
  const struct {
    const char* family;
    int m, n, l;
  } meshes[] = {{"2D-3", 9, 7, 1}, {"2D-4", 8, 6, 1},
                {"2D-8", 7, 7, 1}, {"3D-6", 4, 3, 5}};
  for (const Slot cap : {SimOptions{}.max_slots, Slot{3}}) {
    SimOptions options;
    options.charge_collisions = true;
    options.record_node_energy = true;
    options.max_slots = cap;
    for (const auto& c : meshes) {
      const std::unique_ptr<Topology> topo =
          make_mesh(c.family, c.m, c.n, c.l);
      const ImplicitLattice lat =
          ImplicitLattice::make(c.family, c.m, c.n, c.l);
      const auto centre = static_cast<NodeId>(topo->num_nodes() / 2);
      cross_check(*topo, lat, flooding_plan(topo->num_nodes(), centre),
                  options);
      cross_check(*topo, lat, paper_plan(*topo, centre), options);
      cross_check(*topo, lat, paper_plan(*topo, 0), options);
    }
    const Torus2D4 torus4(3, 3);
    const Torus2D8 torus8(3, 3);
    for (NodeId src = 0; src < 9; src += 4) {
      // Flooding collides almost everywhere; a lone source delivers to
      // every neighbor, twice.
      RelayPlan lone = RelayPlan::empty(9, src);
      lone.set_offsets(src, {1, 2});
      for (const RelayPlan& plan : {flooding_plan(9, src), lone}) {
        cross_check(torus4, ImplicitLattice::torus2d4(3, 3), plan, options);
        cross_check(torus8, ImplicitLattice::torus2d8(3, 3), plan, options);
      }
    }
  }
}

// 0.3 m is inexact in binary, so per-node ranges differ in the last ulp:
// the bulk engine's one-sqrt tx_range must still bill every transmission
// and every node's energy to the bit the reference bills.  The paper's
// electronics term is ~5000x the amplifier term at this range and rounds
// those ulps away, so an amplifier-only radio runs too.
TEST(BulkSimulator, InexactSpacingEnergyMatchesOnEveryMesh) {
  const struct {
    const char* family;
    int m, n, l;
  } meshes[] = {{"2D-3", 17, 13, 1}, {"2D-4", 16, 12, 1},
                {"2D-8", 13, 14, 1}, {"3D-6", 9, 6, 11}};
  const FirstOrderRadioModel radios[] = {FirstOrderRadioModel{},
                                         FirstOrderRadioModel{0.0, 100e-12}};
  for (const auto& c : meshes) {
    const std::unique_ptr<Topology> topo =
        make_mesh(c.family, c.m, c.n, c.l, 0.3);
    const ImplicitLattice lat =
        ImplicitLattice::make(c.family, c.m, c.n, c.l, 0.3);
    std::set<Meters> ranges;
    for (NodeId v = 0; v < lat.num_nodes(); ++v) {
      ranges.insert(lat.tx_range(v));
    }
    EXPECT_GT(ranges.size(), 1u) << c.family;  // the ulp spread is real
    const auto centre = static_cast<NodeId>(topo->num_nodes() / 2);
    for (const FirstOrderRadioModel& radio : radios) {
      SCOPED_TRACE(std::string(c.family) + " elec=" +
                   std::to_string(radio.elec()));
      SimOptions options;
      options.charge_collisions = true;
      options.record_node_energy = true;
      options.radio = radio;
      cross_check(*topo, lat, flooding_plan(topo->num_nodes(), centre),
                  options);
      cross_check(*topo, lat, paper_plan(*topo, centre), options);
      cross_check(*topo, lat, paper_plan(*topo, 0), options);
    }
  }
}

// Where every k·spacing is exact (2.5 m) and on the tori (one range for
// every node, whatever the spacing), the kernel bills tx energy by a
// transmitter's rule set; the bill must still match the reference's
// per-node ranges to the bit.
TEST(BulkSimulator, RuleSetEnergyMatchesOnExactSpacingAndTori) {
  const struct {
    const char* family;
    int m, n, l;
  } meshes[] = {{"2D-3", 17, 13, 1}, {"2D-4", 16, 12, 1},
                {"2D-8", 13, 14, 1}, {"3D-6", 9, 6, 11}};
  const FirstOrderRadioModel radios[] = {FirstOrderRadioModel{},
                                         FirstOrderRadioModel{0.0, 100e-12}};
  SimOptions options;
  options.charge_collisions = true;
  options.record_node_energy = true;
  for (const FirstOrderRadioModel& radio : radios) {
    options.radio = radio;
    for (const auto& c : meshes) {
      SCOPED_TRACE(std::string(c.family) + " elec=" +
                   std::to_string(radio.elec()));
      const std::unique_ptr<Topology> topo =
          make_mesh(c.family, c.m, c.n, c.l, 2.5);
      const ImplicitLattice lat =
          ImplicitLattice::make(c.family, c.m, c.n, c.l, 2.5);
      ASSERT_TRUE(lat.range_by_rule_set());
      const auto centre = static_cast<NodeId>(topo->num_nodes() / 2);
      cross_check(*topo, lat, flooding_plan(topo->num_nodes(), centre),
                  options);
      cross_check(*topo, lat, paper_plan(*topo, centre), options);
      cross_check(*topo, lat, paper_plan(*topo, 0), options);
    }
    for (const Meters spacing : {0.3, 2.5}) {
      const Torus2D4 torus4(7, 5, spacing);
      const Torus2D8 torus8(6, 5, spacing);
      const ImplicitLattice lat4 = ImplicitLattice::torus2d4(7, 5, spacing);
      const ImplicitLattice lat8 = ImplicitLattice::torus2d8(6, 5, spacing);
      ASSERT_TRUE(lat4.range_by_rule_set());
      cross_check(torus4, lat4, flooding_plan(torus4.num_nodes(), 11),
                  options);
      cross_check(torus8, lat8, flooding_plan(torus8.num_nodes(), 29),
                  options);
    }
  }
}

// The hearer pass lists a word when its ones|twos leaves zero, which is
// sound only if every slot of every run starts with both all zero.  Runs
// cut short by max_slots, followed by full runs on other families and
// sizes, must each replay a fresh simulator's outcome on one instance.
TEST(BulkSimulator, TruncatedRunsLeaveNoHearerState) {
  const struct {
    const char* family;
    int m, n, l;
  } meshes[] = {{"2D-8", 12, 10, 1}, {"2D-3", 9, 7, 1},
                {"3D-6", 4, 3, 5},   {"2D-4", 13, 11, 1},
                {"2D-8", 7, 7, 1}};
  BulkSimulator reused;
  for (const auto& c : meshes) {
    const std::unique_ptr<Topology> topo =
        make_mesh(c.family, c.m, c.n, c.l);
    const ImplicitLattice lat =
        ImplicitLattice::make(c.family, c.m, c.n, c.l);
    const auto centre = static_cast<NodeId>(topo->num_nodes() / 2);
    for (const RelayPlan& plan : {flooding_plan(topo->num_nodes(), centre),
                                  paper_plan(*topo, centre)}) {
      for (const Slot cap : {Slot{2}, Slot{5}}) {
        SimOptions capped;
        capped.max_slots = cap;
        expect_identical(bulk_simulate(lat, plan, capped),
                         reused.run(lat, plan, capped));
      }
      expect_identical(bulk_simulate(lat, plan), reused.run(lat, plan));
    }
  }
}

TEST(BulkSimulator, ScratchReuseIsInvisible) {
  // One simulator across different lattices and plan shapes must replay
  // what fresh simulators produce (mask cache + scratch re-priming).
  BulkSimulator reused;
  const ImplicitLattice small = ImplicitLattice::mesh2d4(5, 4);
  const ImplicitLattice big = ImplicitLattice::mesh2d8(9, 6);
  const RelayPlan plan_small = flooding_plan(small.num_nodes(), 3);
  const RelayPlan plan_big = flooding_plan(big.num_nodes(), 40);
  const BroadcastOutcome fresh_small = bulk_simulate(small, plan_small);
  const BroadcastOutcome fresh_big = bulk_simulate(big, plan_big);
  expect_identical(fresh_small, reused.run(small, plan_small));
  expect_identical(fresh_big, reused.run(big, plan_big));
  expect_identical(fresh_small, reused.run(small, plan_small));
}

TEST(BulkSimulator, ProgressCallbackObservesWithoutPerturbing) {
  const ImplicitLattice lat = ImplicitLattice::mesh2d4(16, 12);
  const RelayPlan plan = flooding_plan(lat.num_nodes(), 0);
  const BroadcastOutcome reference = bulk_simulate(lat, plan);

  BulkSimulator instrumented;
  std::vector<BulkProgress> ticks;
  instrumented.set_progress(
      [&ticks](const BulkProgress& p) { ticks.push_back(p); }, 2);
  const BroadcastOutcome observed = instrumented.run(lat, plan);

  // Observation only: the outcome is bit-identical to the silent run.
  expect_identical(reference, observed);

  ASSERT_FALSE(ticks.empty());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    const BulkProgress& p = ticks[i];
    EXPECT_EQ(p.total_nodes, lat.num_nodes());
    EXPECT_GT(p.frontier, 0u);
    EXPECT_LE(p.reached, p.total_nodes);
    EXPECT_GE(p.elapsed_s, 0.0);
    if (i > 0) {
      EXPECT_GT(p.slots_done, ticks[i - 1].slots_done);
      EXPECT_GE(p.reached, ticks[i - 1].reached);  // coverage monotone
    }
  }
  // The final tick always fires and sees the finished broadcast.  (The
  // last transmitting slot can trail the delay: relays scheduled by the
  // final deliveries still transmit, reaching nobody new.)
  EXPECT_EQ(ticks.back().reached, reference.stats.reached);
  EXPECT_GE(ticks.back().slot, reference.stats.delay);

  // Detaching restores silence; the scratch replays identically again.
  instrumented.set_progress(nullptr);
  ticks.clear();
  expect_identical(reference, instrumented.run(lat, plan));
  EXPECT_TRUE(ticks.empty());
}

// A tick every slot: each reports one transmitting slot, in order, with
// the reference's transmitter count for it and the nodes reached by then.
TEST(BulkSimulator, ProgressFrontierCountsMatchReference) {
  const std::unique_ptr<Topology> topo = make_mesh("3D-6", 6, 5, 4);
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(6, 5, 4);
  RelayPlan plan = paper_plan(*topo, 37);
  plan.set_offsets(80, {4, 9});  // a calendar relay transmitting late
  const BroadcastOutcome ref = simulate_broadcast(*topo, plan);

  std::map<Slot, std::size_t> per_slot;
  for (const TxRecord& rec : ref.transmissions) per_slot[rec.slot] += 1;
  BulkSimulator sim;
  std::vector<BulkProgress> ticks;
  sim.set_progress([&ticks](const BulkProgress& p) { ticks.push_back(p); },
                   1);
  expect_identical(ref, sim.run(lat, plan));

  ASSERT_EQ(ticks.size(), per_slot.size());
  auto slot = per_slot.begin();
  for (std::size_t i = 0; i < ticks.size(); ++i, ++slot) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ticks[i].slot, slot->first);
    EXPECT_EQ(ticks[i].slots_done, i + 1);
    EXPECT_EQ(ticks[i].frontier, slot->second);
    const auto reached = static_cast<std::size_t>(
        std::count_if(ref.first_rx.begin(), ref.first_rx.end(),
                      [&](Slot s) { return s <= slot->first; }));
    EXPECT_EQ(ticks[i].reached, reached);
  }
}

// --- Bands: a wide slot's passes split across the pool -----------------
//
// A slot only splits once it loads 2 * kMinBandWords T words, which takes
// a lattice of about 10⁵ nodes; that is past what the reference engine
// checks quickly, so these compare every width with one worker, whose
// kernel the tests above pin to the reference.

/// The most T words any slot of `out` loaded.  Records are slot- then
/// id-ascending, so a slot's words come in order.
std::size_t widest_slot_words(const BroadcastOutcome& out) {
  std::size_t widest = 0;
  std::size_t words = 0;
  const TxRecord* prev = nullptr;
  for (const TxRecord& rec : out.transmissions) {
    if (prev == nullptr || prev->slot != rec.slot) {
      words = 1;
    } else if (prev->node / 64 != rec.node / 64) {
      words += 1;
    }
    widest = std::max(widest, words);
    prev = &rec;
  }
  return widest;
}

/// Widths past one: fewer threads than the widest slot has bands, as
/// many, and more than any slot has (a run never uses more threads than
/// the pool, default_worker_count()).
constexpr std::size_t kWidths[] = {2, 3, 4, 64};

/// Runs `plan` at one worker and at every width in kWidths and expects
/// bit-identical outcomes.  The widest slot must reach `bands` bands, so
/// a lattice too narrow to band fails instead of passing vacuously.
void expect_width_invariant(const ImplicitLattice& lat, const RelayPlan& plan,
                            const SimOptions& options, std::size_t bands) {
  BulkSimulator one(lat.num_nodes(), 1);
  const BroadcastOutcome ref = one.run(lat, plan, options);
  ASSERT_GE(widest_slot_words(ref), bands * BulkSimulator::kMinBandWords);
  for (const std::size_t workers : kWidths) {
    SCOPED_TRACE(workers);
    BulkSimulator sim(lat.num_nodes(), workers);
    expect_identical(ref, sim.run(lat, plan, options));
  }
}

/// Seven relays in ten plain ({1}), two on the calendar with one or two
/// offsets up to 6, one silent.
RelayPlan mixed_plan(std::size_t count, NodeId source, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> role(0, 9);
  std::uniform_int_distribution<Slot> gap(1, 3);
  RelayPlan::Writer plan(count, source);
  for (NodeId v = 0; v < count; ++v) {
    const int r = role(rng);
    if (r < 7) {
      plan.set(v, {1});
    } else if (r < 9) {
      std::vector<Slot> offsets{gap(rng)};
      if (r == 8) offsets.push_back(offsets.back() + gap(rng));
      plan.set(v, offsets);
    }  // else silent; a silent source still sends at slot 1
  }
  return std::move(plan).finish();
}

// The ±plane rules of 3D-6 reach 64 words past a band's edge, so every
// band reads halo words its neighbours write in the next pass.
TEST(BulkBands, ThreeD6MatchesOneWorkerAcrossBandEdges) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(64, 64, 64);
  const auto centre = lat.central_node();
  expect_width_invariant(lat, flooding_plan(lat.num_nodes(), centre), {}, 4);
  expect_width_invariant(lat, mixed_plan(lat.num_nodes(), centre, 5u), {}, 4);
}

TEST(BulkBands, DiagonalRulesMatchOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::mesh2d8(512, 512);
  expect_width_invariant(
      lat, flooding_plan(lat.num_nodes(), lat.central_node()), {}, 2);
}

TEST(BulkBands, TorusMatchesOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::torus2d4(512, 512);
  expect_width_invariant(lat, flooding_plan(lat.num_nodes(), 0), {}, 4);
}

// At 0.3 m the tx cost comes from tx_range per transmitter, not the
// per-rule-set table.
TEST(BulkBands, InexactSpacingMatchesOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(48, 48, 48, 0.3);
  ASSERT_FALSE(lat.range_by_rule_set());
  SimOptions options;
  options.record_node_energy = true;
  expect_width_invariant(
      lat, flooding_plan(lat.num_nodes(), lat.central_node()), options, 2);
}

TEST(BulkBands, ChargedCollisionsAndNodeEnergyMatchOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(48, 48, 48);
  SimOptions options;
  options.charge_collisions = true;
  options.record_node_energy = true;
  expect_width_invariant(
      lat, flooding_plan(lat.num_nodes(), lat.central_node()), options, 2);
}

// A cap that ends the run on a banded slot leaves that slot's forwards
// loaded for a slot that never runs; the next run must not see them.
TEST(BulkBands, SlotCapInABandedSlotMatchesOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(48, 48, 48);
  const RelayPlan plan = mixed_plan(lat.num_nodes(), lat.central_node(), 9u);
  BulkSimulator one(lat.num_nodes(), 1);
  const BroadcastOutcome full = one.run(lat, plan);
  Slot banded = 0;  // the first slot that splits
  for (Slot s = 1; s <= full.stats.delay && banded == 0; ++s) {
    SimOptions capped;
    capped.max_slots = s;
    if (widest_slot_words(one.run(lat, plan, capped)) >=
        2 * BulkSimulator::kMinBandWords) {
      banded = s;
    }
  }
  ASSERT_NE(banded, 0u);
  for (const std::size_t workers : kWidths) {
    SCOPED_TRACE(workers);
    BulkSimulator sim(lat.num_nodes(), workers);
    for (const Slot cap : {banded, banded + 1}) {
      SimOptions capped;
      capped.max_slots = cap;
      expect_identical(one.run(lat, plan, capped),
                       sim.run(lat, plan, capped));
    }
    expect_identical(full, sim.run(lat, plan));
  }
}

TEST(BulkBands, ProgressTicksMatchOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(48, 48, 48);
  const RelayPlan plan =
      flooding_plan(lat.num_nodes(), lat.central_node());
  std::vector<std::vector<BulkProgress>> ticks;
  std::vector<BroadcastOutcome> outcomes;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    BulkSimulator sim(lat.num_nodes(), workers);
    std::vector<BulkProgress>& seen = ticks.emplace_back();
    sim.set_progress([&seen](const BulkProgress& p) { seen.push_back(p); },
                     1);
    outcomes.push_back(sim.run(lat, plan));
  }
  ASSERT_GE(widest_slot_words(outcomes[0]),
            2 * BulkSimulator::kMinBandWords);
  expect_identical(outcomes[0], outcomes[1]);
  ASSERT_EQ(ticks[0].size(), ticks[1].size());
  for (std::size_t i = 0; i < ticks[0].size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ticks[0][i].slot, ticks[1][i].slot);
    EXPECT_EQ(ticks[0][i].slots_done, ticks[1][i].slots_done);
    EXPECT_EQ(ticks[0][i].frontier, ticks[1][i].frontier);
    EXPECT_EQ(ticks[0][i].reached, ticks[1][i].reached);
    EXPECT_EQ(ticks[0][i].total_nodes, ticks[1][i].total_nodes);
  }
}

// Classification clears a T word when it lists the word's hearers; a word
// nobody hears in is cleared on its own.  On a 65-wide 2D-4 mesh, node 64
// (the end of row 1) is bit 0 of word 1 and hears only node 63 (word 0)
// and node 129 (word 2): as the lone source its word is never touched in
// slot 1, and a stale bit would hide its collision in slot 2.
TEST(BulkBands, TransmitterWordNobodyHearsIsCleared) {
  const std::unique_ptr<Topology> topo = make_mesh("2D-4", 65, 3);
  const ImplicitLattice lat = ImplicitLattice::mesh2d4(65, 3);
  cross_check(*topo, lat, flooding_plan(topo->num_nodes(), 64));
}

// Two runs at once: whichever finds the pool held runs every slot in one
// band, and both replay the one-worker outcome.
TEST(BulkBands, ConcurrentRunsMatchOneWorker) {
  const ImplicitLattice lat = ImplicitLattice::mesh3d6(48, 48, 48);
  const RelayPlan plan =
      flooding_plan(lat.num_nodes(), lat.central_node());
  const BroadcastOutcome ref = BulkSimulator(lat.num_nodes(), 1).run(lat, plan);
  ASSERT_GE(widest_slot_words(ref), 2 * BulkSimulator::kMinBandWords);
  std::vector<BroadcastOutcome> outcomes(4);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        BulkSimulator sim(lat.num_nodes());
        outcomes[t] = sim.run(lat, plan);
        outcomes[t + 2] = sim.run(lat, plan);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const BroadcastOutcome& out : outcomes) expect_identical(ref, out);
}

TEST(BulkSimulator, RejectsUnsupportedOptions) {
  SimOptions options;
  EXPECT_TRUE(BulkSimulator::options_supported(options));

  std::string why;
  options.record_collisions = true;
  EXPECT_FALSE(BulkSimulator::options_supported(options, &why));
  EXPECT_FALSE(why.empty());

  options = {};
  Observer observer;
  options.observer = &observer;
  EXPECT_FALSE(BulkSimulator::options_supported(options));

  options = {};
  BatteryBank battery(4, 1.0);
  options.battery = &battery;
  EXPECT_FALSE(BulkSimulator::options_supported(options));
}

}  // namespace
}  // namespace wsn
