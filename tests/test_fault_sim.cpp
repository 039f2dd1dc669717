#include <gtest/gtest.h>

#include "fault/models.h"
#include "sim/pipeline.h"
#include "sim/simulator.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

Mesh2D4 path(int n) { return Mesh2D4(n, 1); }

RelayPlan all_relay_path(int n) {
  RelayPlan plan = RelayPlan::empty(static_cast<std::size_t>(n), 0);
  for (NodeId v = 1; v < static_cast<NodeId>(n); ++v) {
    plan.set_offsets(v, {1});
  }
  return plan;
}

/// Drops every packet on one directed link, everything else perfect.
class DropOneLink final : public FaultModel {
 public:
  DropOneLink(NodeId tx, NodeId rx) : tx_(tx), rx_(rx) {}
  bool link_delivers(NodeId tx, NodeId rx, Slot) override {
    return !(tx == tx_ && rx == rx_);
  }

 private:
  NodeId tx_;
  NodeId rx_;
};

void expect_same_outcome(const BroadcastOutcome& a,
                         const BroadcastOutcome& b) {
  EXPECT_EQ(a.stats.reached, b.stats.reached);
  EXPECT_EQ(a.stats.tx, b.stats.tx);
  EXPECT_EQ(a.stats.rx, b.stats.rx);
  EXPECT_EQ(a.stats.duplicates, b.stats.duplicates);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
  EXPECT_EQ(a.stats.lost_to_fading, b.stats.lost_to_fading);
  EXPECT_EQ(a.stats.lost_to_crash, b.stats.lost_to_crash);
  EXPECT_EQ(a.stats.delay, b.stats.delay);
  EXPECT_DOUBLE_EQ(a.stats.tx_energy, b.stats.tx_energy);
  EXPECT_DOUBLE_EQ(a.stats.rx_energy, b.stats.rx_energy);
  EXPECT_EQ(a.first_rx, b.first_rx);
  ASSERT_EQ(a.transmissions.size(), b.transmissions.size());
  for (std::size_t i = 0; i < a.transmissions.size(); ++i) {
    EXPECT_EQ(a.transmissions[i].slot, b.transmissions[i].slot);
    EXPECT_EQ(a.transmissions[i].node, b.transmissions[i].node);
    EXPECT_EQ(a.transmissions[i].delivered, b.transmissions[i].delivered);
    EXPECT_EQ(a.transmissions[i].fresh, b.transmissions[i].fresh);
  }
}

TEST(FaultSim, ZeroLossModelMatchesPerfectMedium) {
  const Mesh2D4 topo(8, 8);
  RelayPlan plan = RelayPlan::empty(64, 10);
  for (NodeId v = 0; v < 64; ++v) plan.set_offsets(v, {1});
  const auto perfect = simulate_broadcast(topo, plan);
  IidLossModel none(0.0, 123);
  SimOptions options;
  options.faults = &none;
  const auto faulted = simulate_broadcast(topo, plan, options);
  expect_same_outcome(perfect, faulted);
  EXPECT_EQ(faulted.stats.lost_to_fading, 0u);
  EXPECT_EQ(faulted.stats.lost_to_crash, 0u);
}

TEST(FaultSim, FadedLinkStrandsDownstreamAndIsCounted) {
  const auto topo = path(4);
  const RelayPlan plan = all_relay_path(4);
  DropOneLink drop(1, 2);  // the 1 -> 2 hop always fades
  SimOptions options;
  options.faults = &drop;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(out.first_rx[1], 1u);
  EXPECT_EQ(out.first_rx[2], kNeverSlot);
  EXPECT_EQ(out.first_rx[3], kNeverSlot);
  EXPECT_EQ(out.stats.reached, 2u);
  EXPECT_EQ(out.stats.lost_to_fading, 1u);  // exactly the 1->2 delivery
  EXPECT_EQ(out.stats.lost_to_crash, 0u);
}

TEST(FaultSim, FadedPacketDoesNotInterfere) {
  // 5-node path, source in the middle: its two relays transmit in the same
  // slot and collide at the source under a perfect medium.  If one of the
  // two signals fades, the other must now decode -- a faded packet is
  // below the interference threshold too.
  const auto topo5 = path(5);
  RelayPlan plan5 = RelayPlan::empty(5, 2);  // source in the middle
  plan5.set_offsets(1, {1});
  plan5.set_offsets(3, {1});
  // Slot 1: source 2 transmits, 1 and 3 decode.  Slot 2: 1 and 3 both
  // transmit; node 2 (their shared neighbor) sees a collision.
  const auto perfect = simulate_broadcast(topo5, plan5);
  EXPECT_EQ(perfect.stats.collisions, 1u);

  DropOneLink drop(1, 2);  // 1's packet fades at 2; 3's now decodes
  SimOptions options;
  options.faults = &drop;
  const auto faded = simulate_broadcast(topo5, plan5, options);
  EXPECT_EQ(faded.stats.collisions, 0u);
  EXPECT_EQ(faded.stats.lost_to_fading, 1u);
  EXPECT_EQ(faded.stats.duplicates, perfect.stats.duplicates + 1);
}

TEST(FaultSim, CrashedTransmitterLosesTheSlot) {
  const auto topo = path(3);
  const RelayPlan plan = all_relay_path(3);
  // Node 1 receives at slot 1, would relay at slot 2 -- but is down then.
  CrashScheduleModel crash(3, {CrashEvent{1, 2, 3}});
  SimOptions options;
  options.faults = &crash;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(out.stats.tx, 1u);  // only the source fired
  EXPECT_EQ(out.first_rx[2], kNeverSlot);
  // Node 1 has two neighbors; its suppressed transmission charges both.
  EXPECT_EQ(out.stats.lost_to_crash, 2u);
  EXPECT_EQ(out.first_tx(1), kNeverSlot);
}

TEST(FaultSim, CrashedReceiverMissesThePacket) {
  const auto topo = path(3);
  const RelayPlan plan = all_relay_path(3);
  // Node 1 is down exactly when the source transmits, then recovers; with
  // no second source transmission the wavefront dies at node 1.
  CrashScheduleModel crash(3, {CrashEvent{1, 1, 2}});
  SimOptions options;
  options.faults = &crash;
  const auto out = simulate_broadcast(topo, plan, options);
  EXPECT_EQ(out.first_rx[1], kNeverSlot);
  EXPECT_EQ(out.stats.reached, 1u);
  EXPECT_EQ(out.stats.lost_to_crash, 1u);
}

TEST(FaultSim, RecoveredNodeRejoinsViaRetransmission) {
  const auto topo = path(3);
  RelayPlan plan = all_relay_path(3);
  plan.set_offsets(0, {1, 3});  // source retransmits at slot 3
  CrashScheduleModel crash(3, {CrashEvent{1, 1, 2}});
  SimOptions options;
  options.faults = &crash;
  const auto out = simulate_broadcast(topo, plan, options);
  // Missed the slot-1 delivery while down, caught the slot-3 repeat.
  EXPECT_EQ(out.first_rx[1], 3u);
  EXPECT_EQ(out.first_rx[2], 4u);
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(FaultSim, SameSeedSameOutcome) {
  // The acceptance-criterion determinism check: identical seeds replay the
  // identical broadcast, transmission for transmission.
  const Mesh2D4 topo(8, 8);
  RelayPlan plan = RelayPlan::empty(64, 27);
  for (NodeId v = 0; v < 64; ++v) plan.set_offsets(v, {1, 2});
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadull}) {
    IidLossModel a(0.3, seed);
    IidLossModel b(0.3, seed);
    SimOptions oa;
    oa.faults = &a;
    SimOptions ob;
    ob.faults = &b;
    expect_same_outcome(simulate_broadcast(topo, plan, oa),
                        simulate_broadcast(topo, plan, ob));
  }
}

TEST(FaultSim, DifferentSeedsDiffer) {
  const Mesh2D4 topo(8, 8);
  RelayPlan plan = RelayPlan::empty(64, 27);
  for (NodeId v = 0; v < 64; ++v) plan.set_offsets(v, {1});
  IidLossModel a(0.3, 1);
  IidLossModel b(0.3, 2);
  SimOptions oa;
  oa.faults = &a;
  SimOptions ob;
  ob.faults = &b;
  const auto ra = simulate_broadcast(topo, plan, oa);
  const auto rb = simulate_broadcast(topo, plan, ob);
  EXPECT_NE(ra.first_rx, rb.first_rx);
}

TEST(FaultSim, SameModelInstanceReplaysAcrossRuns) {
  // The resolver simulates the same plan repeatedly with one options
  // struct; begin_run() must make that idempotent even for the stateful
  // Gilbert-Elliott chains.
  const Mesh2D4 topo(6, 6);
  RelayPlan plan = RelayPlan::empty(36, 0);
  for (NodeId v = 0; v < 36; ++v) plan.set_offsets(v, {1});
  GilbertElliottModel model = GilbertElliottModel::from_mean_loss(0.2, 4, 9);
  SimOptions options;
  options.faults = &model;
  const auto first = simulate_broadcast(topo, plan, options);
  const auto second = simulate_broadcast(topo, plan, options);
  expect_same_outcome(first, second);
}

TEST(FaultPipeline, ZeroLossMatchesPerfectMedium) {
  const Mesh2D4 topo(8, 4);
  RelayPlan plan = RelayPlan::empty(32, 0);
  for (NodeId v = 0; v < 32; ++v) plan.set_offsets(v, {1});
  PipelineOptions options;
  options.packets = 3;
  options.interval = 10;
  const auto perfect = simulate_pipeline(topo, plan, options);
  IidLossModel none(0.0, 5);
  options.sim.faults = &none;
  const auto faulted = simulate_pipeline(topo, plan, options);
  ASSERT_EQ(perfect.per_packet.size(), faulted.per_packet.size());
  for (std::size_t p = 0; p < perfect.per_packet.size(); ++p) {
    EXPECT_EQ(perfect.per_packet[p].reached, faulted.per_packet[p].reached);
    EXPECT_EQ(perfect.per_packet[p].tx, faulted.per_packet[p].tx);
    EXPECT_EQ(perfect.per_packet[p].rx, faulted.per_packet[p].rx);
    EXPECT_EQ(perfect.per_packet[p].delay, faulted.per_packet[p].delay);
  }
  EXPECT_EQ(faulted.aggregate.lost_to_fading, 0u);
  EXPECT_EQ(faulted.aggregate.lost_to_crash, 0u);
}

TEST(FaultPipeline, LossIsCountedPerPacketAndAggregated) {
  const auto topo = path(4);
  const RelayPlan plan = all_relay_path(4);
  DropOneLink drop(2, 3);
  PipelineOptions options;
  options.packets = 2;
  options.interval = 8;
  options.sim.faults = &drop;
  const auto out = simulate_pipeline(topo, plan, options);
  // Each packet's 2 -> 3 delivery fades; node 3 never gets either.
  EXPECT_EQ(out.per_packet[0].lost_to_fading, 1u);
  EXPECT_EQ(out.per_packet[1].lost_to_fading, 1u);
  EXPECT_EQ(out.aggregate.lost_to_fading, 2u);
  EXPECT_EQ(out.per_packet[0].reached, 3u);
  EXPECT_EQ(out.per_packet[1].reached, 3u);
}

TEST(FaultPipeline, DeterministicUnderSeededLoss) {
  const Mesh2D4 topo(6, 6);
  RelayPlan plan = RelayPlan::empty(36, 0);
  for (NodeId v = 0; v < 36; ++v) plan.set_offsets(v, {1});
  PipelineOptions options;
  options.packets = 3;
  options.interval = 6;
  IidLossModel a(0.2, 77);
  options.sim.faults = &a;
  const auto ra = simulate_pipeline(topo, plan, options);
  IidLossModel b(0.2, 77);
  options.sim.faults = &b;
  const auto rb = simulate_pipeline(topo, plan, options);
  ASSERT_EQ(ra.per_packet.size(), rb.per_packet.size());
  for (std::size_t p = 0; p < ra.per_packet.size(); ++p) {
    EXPECT_EQ(ra.per_packet[p].reached, rb.per_packet[p].reached);
    EXPECT_EQ(ra.per_packet[p].rx, rb.per_packet[p].rx);
    EXPECT_EQ(ra.per_packet[p].lost_to_fading,
              rb.per_packet[p].lost_to_fading);
    EXPECT_EQ(ra.per_packet[p].delay, rb.per_packet[p].delay);
  }
}

}  // namespace
}  // namespace wsn
