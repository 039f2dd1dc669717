#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "sim/pipeline.h"
#include "sim/simulator.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/mesh2d8.h"
#include "topology/random_geometric.h"

namespace wsn {
namespace {

/// Independent reference implementation of the medium semantics, written
/// for clarity rather than speed: per slot, recompute everything from
/// scratch over all nodes.  Differential testing against the production
/// simulator on randomized plans catches bookkeeping bugs (epoch reuse,
/// attribution, half-duplex) that unit tests of either implementation
/// alone would share.
struct RefResult {
  std::vector<Slot> first_rx;
  std::size_t tx = 0;
  std::size_t rx = 0;
  std::size_t duplicates = 0;
  std::size_t collisions = 0;
  Slot delay = 0;
};

RefResult reference_simulate(const Topology& topo, const RelayPlan& plan,
                             Slot max_slots = 4096) {
  const std::size_t n = topo.num_nodes();
  RefResult ref;
  ref.first_rx.assign(n, kNeverSlot);
  ref.first_rx[plan.source()] = 0;

  // tx_at[v] = absolute slots at which v transmits (filled on reception).
  std::vector<std::vector<Slot>> tx_at(n);
  for (Slot offset : plan.offsets(plan.source())) {
    tx_at[plan.source()].push_back(offset);
  }

  for (Slot slot = 1; slot <= max_slots; ++slot) {
    // Who transmits this slot?
    std::vector<char> transmitting(n, 0);
    bool anyone_later = false;
    for (NodeId v = 0; v < n; ++v) {
      for (Slot s : tx_at[v]) {
        if (s == slot) transmitting[v] = 1;
        if (s >= slot) anyone_later = true;
      }
    }
    if (!anyone_later) break;

    for (NodeId v = 0; v < n; ++v) {
      if (transmitting[v]) ref.tx += 1;
    }
    // Who hears what?
    for (NodeId u = 0; u < n; ++u) {
      if (transmitting[u]) continue;
      std::size_t heard = 0;
      for (NodeId v : topo.neighbors(u)) {
        if (transmitting[v]) ++heard;
      }
      if (heard == 1) {
        ref.rx += 1;
        if (ref.first_rx[u] == kNeverSlot) {
          ref.first_rx[u] = slot;
          ref.delay = std::max(ref.delay, slot);
          for (Slot offset : plan.offsets(u)) {
            tx_at[u].push_back(slot + offset);
          }
        } else {
          ref.duplicates += 1;
        }
      } else if (heard > 1) {
        ref.collisions += 1;
      }
    }
  }
  return ref;
}

void expect_equivalent(const Topology& topo, const RelayPlan& plan) {
  const BroadcastOutcome out = simulate_broadcast(topo, plan);
  const RefResult ref = reference_simulate(topo, plan);
  ASSERT_EQ(out.stats.tx, ref.tx);
  ASSERT_EQ(out.stats.rx, ref.rx);
  ASSERT_EQ(out.stats.duplicates, ref.duplicates);
  ASSERT_EQ(out.stats.collisions, ref.collisions);
  ASSERT_EQ(out.stats.delay, ref.delay);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    ASSERT_EQ(out.first_rx[v], ref.first_rx[v]) << v;
  }
}

RelayPlan random_plan(const Topology& topo, Xoshiro256& rng) {
  const auto source =
      static_cast<NodeId>(rng.below(topo.num_nodes()));
  RelayPlan plan = RelayPlan::empty(topo.num_nodes(), source);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (v == source) continue;
    const std::uint64_t roll = rng.below(10);
    if (roll < 5) {
      plan.set_offsets(v, {static_cast<Slot>(1 + rng.below(3))});
    } else if (roll < 7) {
      const Slot first = static_cast<Slot>(1 + rng.below(3));
      plan.set_offsets(v, {first, first + static_cast<Slot>(1 + rng.below(3))});
    }
  }
  return plan;
}

TEST(SimDifferential, RandomPlansOnMesh2D4) {
  const Mesh2D4 topo(9, 7);
  Xoshiro256 rng(101);
  for (int round = 0; round < 40; ++round) {
    expect_equivalent(topo, random_plan(topo, rng));
  }
}

TEST(SimDifferential, RandomPlansOnMesh2D8) {
  const Mesh2D8 topo(8, 6);
  Xoshiro256 rng(202);
  for (int round = 0; round < 40; ++round) {
    expect_equivalent(topo, random_plan(topo, rng));
  }
}

TEST(SimDifferential, RandomPlansOnBrickMesh) {
  const Mesh2D3 topo(10, 8);
  Xoshiro256 rng(303);
  for (int round = 0; round < 40; ++round) {
    expect_equivalent(topo, random_plan(topo, rng));
  }
}

TEST(SimDifferential, RandomPlansOnRandomTopology) {
  const RandomGeometric topo(60, 8.0, 2.0, 404);
  Xoshiro256 rng(505);
  for (int round = 0; round < 40; ++round) {
    expect_equivalent(topo, random_plan(topo, rng));
  }
}

TEST(SimDifferential, FloodingStressOnDenseGraph) {
  // Dense random graph + everyone-relays: maximum collision churn.
  const RandomGeometric topo(80, 6.0, 2.5, 606);
  Xoshiro256 rng(707);
  for (int round = 0; round < 10; ++round) {
    const auto source = static_cast<NodeId>(rng.below(topo.num_nodes()));
    RelayPlan plan = RelayPlan::empty(topo.num_nodes(), source);
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      plan.set_offsets(v, {static_cast<Slot>(1 + rng.below(2))});
    }
    plan.set_offsets(source, {1});
    expect_equivalent(topo, plan);
  }
}

/// The reference extended to pipelines, equally naive: the source injects
/// `packets` packets `interval` slots apart; a node owing several packets
/// in one slot sends the oldest and owes the others one slot later (a
/// packet owed twice in one slot goes out once); a lone transmitting
/// neighbor delivers its own packet, and each packet's relay offsets run
/// from that packet's first reception.
struct RefPipeline {
  std::vector<std::vector<Slot>> first_rx;  // [packet][node]
  std::vector<std::size_t> tx;
  std::vector<std::size_t> rx;
  std::vector<std::size_t> duplicates;
  std::vector<Slot> delay;  // per packet, from its injection
  std::size_t collisions = 0;
  std::size_t defers = 0;
};

RefPipeline reference_pipeline(const Topology& topo, const RelayPlan& plan,
                               std::size_t packets, Slot interval,
                               Slot max_slots = 4096) {
  const std::size_t n = topo.num_nodes();
  RefPipeline ref;
  ref.first_rx.assign(packets, std::vector<Slot>(n, kNeverSlot));
  ref.tx.assign(packets, 0);
  ref.rx.assign(packets, 0);
  ref.duplicates.assign(packets, 0);
  ref.delay.assign(packets, 0);

  // owed[v] = the (slot, packet) transmissions v still has to make.
  std::vector<std::set<std::pair<Slot, std::size_t>>> owed(n);
  const auto arm = [&](NodeId v, std::size_t packet, Slot at) {
    for (Slot offset : plan.offsets(v)) {
      owed[v].insert({at + offset, packet});
    }
  };
  for (std::size_t p = 0; p < packets; ++p) {
    const Slot base = static_cast<Slot>(p) * interval;
    ref.first_rx[p][plan.source()] = base;
    arm(plan.source(), p, base);
  }

  constexpr std::size_t kSilent = ~std::size_t{0};
  for (Slot slot = 1; slot <= max_slots; ++slot) {
    // Who sends which packet this slot?
    std::vector<std::size_t> sending(n, kSilent);
    bool anyone = false;
    for (NodeId v = 0; v < n; ++v) {
      std::vector<std::size_t> now;
      while (!owed[v].empty() && owed[v].begin()->first == slot) {
        now.push_back(owed[v].begin()->second);
        owed[v].erase(owed[v].begin());
      }
      if (!now.empty()) {
        sending[v] = now.front();  // the set yields packets oldest first
        ref.tx[now.front()] += 1;
        for (std::size_t k = 1; k < now.size(); ++k) {
          if (owed[v].insert({slot + 1, now[k]}).second) ref.defers += 1;
        }
      }
      if (!now.empty() || !owed[v].empty()) anyone = true;
    }
    if (!anyone) break;

    // Who hears what?
    for (NodeId u = 0; u < n; ++u) {
      if (sending[u] != kSilent) continue;
      std::size_t heard = 0;
      NodeId from = kInvalidNode;
      for (NodeId v : topo.neighbors(u)) {
        if (sending[v] != kSilent) {
          ++heard;
          from = v;
        }
      }
      if (heard == 1) {
        const std::size_t p = sending[from];
        ref.rx[p] += 1;
        if (ref.first_rx[p][u] == kNeverSlot) {
          ref.first_rx[p][u] = slot;
          ref.delay[p] =
              std::max(ref.delay[p], slot - static_cast<Slot>(p) * interval);
          arm(u, p, slot);
        } else {
          ref.duplicates[p] += 1;
        }
      } else if (heard > 1) {
        ref.collisions += 1;
      }
    }
  }
  return ref;
}

/// Checks simulate_pipeline against the reference: per-packet stats, the
/// aggregate collisions, the deferral count and every packet's first
/// receptions (read back from the kRx events).  Returns the deferrals.
std::size_t expect_pipeline_equivalent(const Topology& topo,
                                       const RelayPlan& plan,
                                       std::size_t packets, Slot interval) {
  EventSink sink;
  Observer observer(&sink);
  PipelineOptions options;
  options.packets = packets;
  options.interval = interval;
  options.sim.observer = &observer;
  const PipelineOutcome out = simulate_pipeline(topo, plan, options);
  const RefPipeline ref = reference_pipeline(topo, plan, packets, interval);
  EXPECT_EQ(sink.dropped(), 0u);

  EXPECT_EQ(out.per_packet.size(), packets);
  std::vector<std::vector<Slot>> first_rx(
      packets, std::vector<Slot>(topo.num_nodes(), kNeverSlot));
  for (std::size_t p = 0; p < packets; ++p) {
    first_rx[p][plan.source()] = static_cast<Slot>(p) * interval;
  }
  for (const Event& event : sink.events()) {
    if (event.kind == EventKind::kRx) {
      first_rx[event.packet][event.node] = event.slot;
    }
  }
  for (std::size_t p = 0; p < packets; ++p) {
    const BroadcastStats& stats = out.per_packet[p];
    EXPECT_EQ(stats.tx, ref.tx[p]) << "packet " << p;
    EXPECT_EQ(stats.rx, ref.rx[p]) << "packet " << p;
    EXPECT_EQ(stats.duplicates, ref.duplicates[p]) << "packet " << p;
    EXPECT_EQ(stats.delay, ref.delay[p]) << "packet " << p;
    EXPECT_EQ(stats.collisions, 0u) << "packet " << p;
    EXPECT_EQ(stats.reached,
              topo.num_nodes() - static_cast<std::size_t>(std::count(
                                     ref.first_rx[p].begin(),
                                     ref.first_rx[p].end(), kNeverSlot)))
        << "packet " << p;
    EXPECT_EQ(first_rx[p], ref.first_rx[p]) << "packet " << p;
  }
  EXPECT_EQ(out.aggregate.collisions, ref.collisions);
  EXPECT_EQ(sink.count(EventKind::kPipelineDefer), ref.defers);
  return ref.defers;
}

std::unique_ptr<Topology> random_lattice(Xoshiro256& rng) {
  const int m = 3 + static_cast<int>(rng.below(6));
  const int n = 3 + static_cast<int>(rng.below(5));
  switch (rng.below(3)) {
    case 0:
      return std::make_unique<Mesh2D3>(m, n);
    case 1:
      return std::make_unique<Mesh2D4>(m, n);
    default:
      return std::make_unique<Mesh2D8>(m, n);
  }
}

TEST(SimDifferential, PipelinesOnRandomLattices) {
  Xoshiro256 rng(808);
  std::size_t defers = 0;
  for (int round = 0; round < 120; ++round) {
    const std::unique_ptr<Topology> topo = random_lattice(rng);
    const RelayPlan plan = random_plan(*topo, rng);
    const std::size_t packets = 1 + rng.below(4);
    const auto interval = static_cast<Slot>(1 + rng.below(6));
    SCOPED_TRACE(topo->name() + " round " + std::to_string(round) +
                 " packets " + std::to_string(packets) + " interval " +
                 std::to_string(interval));
    defers += expect_pipeline_equivalent(*topo, plan, packets, interval);
  }
  // The grid must actually exercise the oldest-first deferral.
  EXPECT_GT(defers, 0u);
}

TEST(SimDifferential, PipelinedFloodingOnRandomTopology) {
  // Everyone relays twice: packets chase each other through every node,
  // so deferral, the duplicate drop and cross-packet collisions all fire.
  const RandomGeometric topo(50, 7.0, 2.0, 909);
  Xoshiro256 rng(1010);
  std::size_t defers = 0;
  for (int round = 0; round < 20; ++round) {
    const auto source = static_cast<NodeId>(rng.below(topo.num_nodes()));
    RelayPlan plan = RelayPlan::empty(topo.num_nodes(), source);
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      const Slot first = static_cast<Slot>(1 + rng.below(2));
      plan.set_offsets(v, {first, first + static_cast<Slot>(1 + rng.below(3))});
    }
    const std::size_t packets = 2 + rng.below(3);
    const auto interval = static_cast<Slot>(1 + rng.below(3));
    SCOPED_TRACE("round " + std::to_string(round));
    defers += expect_pipeline_equivalent(topo, plan, packets, interval);
  }
  EXPECT_GT(defers, 0u);
}

}  // namespace
}  // namespace wsn
