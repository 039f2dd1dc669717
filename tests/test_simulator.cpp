#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "topology/mesh2d4.h"

namespace wsn {
namespace {

/// 1×n path topology: ids 0..n-1 left to right.
Mesh2D4 path(int n) { return Mesh2D4(n, 1); }

TEST(Simulator, SourceTransmitsAtSlotOne) {
  const auto topo = path(2);
  const RelayPlan plan = RelayPlan::empty(2, 0);
  const auto out = simulate_broadcast(topo, plan);
  ASSERT_EQ(out.transmissions.size(), 1u);
  EXPECT_EQ(out.transmissions[0].slot, 1u);
  EXPECT_EQ(out.transmissions[0].node, 0u);
  EXPECT_EQ(out.transmissions[0].fresh, 1u);
  EXPECT_EQ(out.first_rx[0], 0u);
  EXPECT_EQ(out.first_rx[1], 1u);
}

TEST(Simulator, WavefrontAdvancesOneHopPerSlot) {
  const auto topo = path(6);
  RelayPlan plan = RelayPlan::empty(6, 0);
  for (NodeId v = 1; v < 6; ++v) plan.set_offsets(v, {1});
  const auto out = simulate_broadcast(topo, plan);
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_EQ(out.first_rx[v], static_cast<Slot>(v));
  }
  EXPECT_EQ(out.stats.delay, 5u);
  EXPECT_TRUE(out.stats.fully_reached());
  // Every hop back is a duplicate reception at the previous node.
  EXPECT_EQ(out.stats.duplicates, 5u);  // nodes 0..4 hear their successor
}

TEST(Simulator, CollisionsAtCrossfire) {
  // 3×3 mesh, source center, all four axis neighbors relay: in slot 2 all
  // four transmit; the corners each hear two transmitters and decode
  // nothing, and the center hears four.
  const Mesh2D4 topo(3, 3);
  const Grid2D& g = topo.grid();
  RelayPlan plan = RelayPlan::empty(9, g.to_id({2, 2}));
  for (Vec2 v : {Vec2{1, 2}, Vec2{3, 2}, Vec2{2, 1}, Vec2{2, 3}}) {
    plan.set_offsets(g.to_id(v), {1});
  }
  SimOptions options;
  options.record_collisions = true;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(out.stats.tx, 5u);
  EXPECT_EQ(out.stats.collisions, 5u);  // 4 corners + the deaf center
  EXPECT_EQ(out.stats.rx, 4u);          // only the source's own delivery
  EXPECT_EQ(out.stats.reached, 5u);
  ASSERT_EQ(out.collision_events.size(), 5u);
  // The center's collision has 4 contenders.
  bool center_seen = false;
  for (const auto& ev : out.collision_events) {
    if (ev.node == g.to_id({2, 2})) {
      center_seen = true;
      EXPECT_EQ(ev.contenders, 4u);
    } else {
      EXPECT_EQ(ev.contenders, 2u);
    }
  }
  EXPECT_TRUE(center_seen);
}

TEST(Simulator, HalfDuplexTransmitterIsDeaf) {
  // Nodes 0 and 1 adjacent; both transmit in slot 2 (0 retransmits).
  const auto topo = path(2);
  RelayPlan plan = RelayPlan::empty(2, 0);
  plan.set_offsets(0, {1, 2});
  plan.set_offsets(1, {1});
  const auto out = simulate_broadcast(topo, plan);
  // Slot 1: 1 hears 0.  Slot 2: both transmit, neither hears anything.
  EXPECT_EQ(out.stats.rx, 1u);
  EXPECT_EQ(out.stats.duplicates, 0u);
  EXPECT_EQ(out.stats.collisions, 0u);
  EXPECT_EQ(out.stats.tx, 3u);
}

TEST(Simulator, DuplicateReceptionsAreCounted) {
  const auto topo = path(3);
  RelayPlan plan = RelayPlan::empty(3, 0);
  plan.set_offsets(1, {1});
  plan.set_offsets(2, {1});
  const auto out = simulate_broadcast(topo, plan);
  // 1 hears 0 (fresh); 0 and 2 hear 1 (dup for 0, fresh for 2); 1 hears 2
  // (dup).
  EXPECT_EQ(out.stats.rx, 4u);
  EXPECT_EQ(out.stats.duplicates, 2u);
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(Simulator, EnergyAccountingMatchesClosedForm) {
  const auto topo = path(4);
  RelayPlan plan = RelayPlan::empty(4, 0);
  for (NodeId v = 1; v < 4; ++v) plan.set_offsets(v, {1});
  SimOptions options;
  options.packet_bits = 512;
  const auto out = simulate_broadcast(topo, plan, options);
  const FirstOrderRadioModel radio;
  Joules expect_tx = 0.0;
  for (const TxRecord& rec : out.transmissions) {
    expect_tx += radio.tx_energy(512, topo.tx_range(rec.node));
  }
  EXPECT_DOUBLE_EQ(out.stats.tx_energy, expect_tx);
  EXPECT_DOUBLE_EQ(out.stats.rx_energy,
                   static_cast<double>(out.stats.rx) * radio.rx_energy(512));
  EXPECT_DOUBLE_EQ(out.stats.total_energy(),
                   out.stats.tx_energy + out.stats.rx_energy);
}

TEST(Simulator, CollisionEnergyOffByDefault) {
  const Mesh2D4 topo(3, 3);
  const Grid2D& g = topo.grid();
  RelayPlan plan = RelayPlan::empty(9, g.to_id({2, 2}));
  for (Vec2 v : {Vec2{1, 2}, Vec2{3, 2}, Vec2{2, 1}, Vec2{2, 3}}) {
    plan.set_offsets(g.to_id(v), {1});
  }
  const auto base = simulate_broadcast(topo, plan);
  SimOptions charged;
  charged.charge_collisions = true;
  const auto with = simulate_broadcast(topo, plan, charged);
  EXPECT_GT(with.stats.rx_energy, base.stats.rx_energy);
  EXPECT_EQ(with.stats.rx, base.stats.rx);  // counting unchanged
}

TEST(Simulator, DeadNodesDropOutOfTheMedium) {
  const auto topo = path(3);
  RelayPlan plan = RelayPlan::empty(3, 0);
  plan.set_offsets(1, {1});
  BatteryBank bank(3, 1.0);
  bank.drain(1, 1.0);  // kill the middle relay
  SimOptions options;
  options.battery = &bank;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(out.stats.tx, 1u);  // only the source
  EXPECT_EQ(out.first_rx[1], kNeverSlot);
  EXPECT_EQ(out.first_rx[2], kNeverSlot);
  EXPECT_EQ(out.stats.reached, 1u);
}

TEST(Simulator, BatteryDrainsByActivity) {
  const auto topo = path(2);
  RelayPlan plan = RelayPlan::empty(2, 0);
  BatteryBank bank(2, 1.0);
  SimOptions options;
  options.battery = &bank;
  const auto out = simulate_broadcast(topo, plan, options);
  const FirstOrderRadioModel radio;
  EXPECT_DOUBLE_EQ(bank.charge(0), 1.0 - radio.tx_energy(512, 0.5));
  EXPECT_DOUBLE_EQ(bank.charge(1), 1.0 - radio.rx_energy(512));
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(Simulator, MaxSlotsStopsRunawaySchedules) {
  const auto topo = path(2);
  RelayPlan plan = RelayPlan::empty(2, 0);
  plan.set_offsets(1, {500});
  SimOptions options;
  options.max_slots = 100;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(out.stats.tx, 1u);  // the deferred transmission never fires
}

TEST(Simulator, FirstTxLookup) {
  const auto topo = path(3);
  RelayPlan plan = RelayPlan::empty(3, 0);
  plan.set_offsets(1, {2});
  const auto out = simulate_broadcast(topo, plan);
  EXPECT_EQ(out.first_tx(0), 1u);
  EXPECT_EQ(out.first_tx(1), 3u);  // received slot 1, offset 2
  EXPECT_EQ(out.first_tx(2), kNeverSlot);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Mesh2D4 topo(8, 8);
  RelayPlan plan = RelayPlan::empty(64, 10);
  for (NodeId v = 0; v < 64; ++v) plan.set_offsets(v, {1});
  const auto a = simulate_broadcast(topo, plan);
  const auto b = simulate_broadcast(topo, plan);
  ASSERT_EQ(a.transmissions.size(), b.transmissions.size());
  for (std::size_t i = 0; i < a.transmissions.size(); ++i) {
    EXPECT_EQ(a.transmissions[i].slot, b.transmissions[i].slot);
    EXPECT_EQ(a.transmissions[i].node, b.transmissions[i].node);
    EXPECT_EQ(a.transmissions[i].fresh, b.transmissions[i].fresh);
  }
  EXPECT_EQ(a.stats.rx, b.stats.rx);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
}

TEST(Simulator, UnreachedListsExactlyTheUnreached) {
  const auto topo = path(4);
  const RelayPlan plan = RelayPlan::empty(4, 0);  // nobody forwards
  const auto out = simulate_broadcast(topo, plan);
  const auto unreached = out.unreached();
  ASSERT_EQ(unreached.size(), 2u);
  EXPECT_EQ(unreached[0], 2u);
  EXPECT_EQ(unreached[1], 3u);
}

}  // namespace
}  // namespace wsn
