#include "protocol/repair_wave.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "topology/factory.h"
#include "topology/implicit.h"

namespace wsn {
namespace {

// A random lattice of one family with a random reached set (first_rx) and
// a random ascending candidate set, reached or not.
struct WaveCase {
  std::unique_ptr<Topology> topo;
  ImplicitLattice lat;
  std::vector<Slot> first_rx;
  std::vector<NodeId> candidates;
};

WaveCase random_case(const std::string& family, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const bool three_d = family == "3D-6";
  const auto side = [&](int lo, int hi) {
    const auto choices = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(rng.below(choices));
  };
  const int m = three_d ? side(2, 6) : side(2, 16);
  const int n = three_d ? side(2, 6) : side(2, 16);
  const int l = three_d ? side(2, 6) : 1;
  WaveCase c{make_mesh(family, m, n, l),
             ImplicitLattice::make(family, m, n, l), {}, {}};
  const std::size_t count = c.topo->num_nodes();
  const double reached = 0.2 + 0.6 * rng.canonical();
  const double candidate = 0.1 + 0.6 * rng.canonical();
  c.first_rx.assign(count, kNeverSlot);
  for (NodeId v = 0; v < count; ++v) {
    if (rng.chance(reached)) c.first_rx[v] = static_cast<Slot>(rng.below(40));
    if (rng.chance(candidate)) c.candidates.push_back(v);
  }
  return c;
}

// Ranks that mix the arguments, so the preference is not just first_rx.
int mixed_rank(NodeId h, NodeId u) { return static_cast<int>((h * 7 + u) % 3); }

std::vector<NodeId> mixed_wave(const WaveCase& c) {
  return repair_wave::pick_helpers(*c.topo, c.candidates, c.first_rx,
                                   mixed_rank);
}

bool brute_within_two_hops(const Topology& topo, NodeId a, NodeId b) {
  const auto na = topo.neighbors(a);
  const auto nb = topo.neighbors(b);
  if (std::find(na.begin(), na.end(), b) != na.end()) return true;
  return std::any_of(na.begin(), na.end(), [&](NodeId w) {
    return std::find(nb.begin(), nb.end(), w) != nb.end();
  });
}

template <typename Visit>
void for_each_case(Visit visit) {
  for (const std::string family : {"2D-3", "2D-4", "2D-8", "3D-6"}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(family + " seed " + std::to_string(seed));
      visit(random_case(family, seed));
    }
  }
}

TEST(RepairWave, HelpersSharingASlotAreMoreThanTwoHopsApart) {
  for_each_case([](const WaveCase& c) {
    const std::vector<NodeId> helpers = mixed_wave(c);
    const std::vector<Slot> slots =
        repair_wave::pack_two_hop(*c.topo, helpers);
    ASSERT_EQ(slots.size(), helpers.size());
    for (std::size_t i = 0; i < helpers.size(); ++i) {
      for (std::size_t j = i + 1; j < helpers.size(); ++j) {
        if (slots[i] != slots[j]) continue;
        EXPECT_FALSE(brute_within_two_hops(*c.topo, helpers[i], helpers[j]))
            << helpers[i] << " and " << helpers[j] << " share slot "
            << slots[i];
      }
    }
  });
}

TEST(RepairWave, EachHelperTakesTheLowestSlotFreeOfEarlierClashes) {
  for_each_case([](const WaveCase& c) {
    const std::vector<NodeId> helpers = mixed_wave(c);
    const std::vector<Slot> slots =
        repair_wave::pack_two_hop(*c.topo, helpers);
    for (std::size_t i = 0; i < helpers.size(); ++i) {
      for (Slot below = 0; below < slots[i]; ++below) {
        bool clash = false;
        for (std::size_t j = 0; j < i && !clash; ++j) {
          clash = slots[j] == below &&
                  brute_within_two_hops(*c.topo, helpers[i], helpers[j]);
        }
        EXPECT_TRUE(clash) << "helper " << helpers[i] << " in slot "
                           << slots[i] << " fits slot " << below;
      }
    }
  });
}

TEST(RepairWave, EveryCandidateWithAHolderNeighbourIsCovered) {
  for_each_case([](const WaveCase& c) {
    const std::vector<NodeId> helpers = mixed_wave(c);
    for (const NodeId h : helpers) {
      EXPECT_NE(c.first_rx[h], kNeverSlot) << "helper " << h;
      EXPECT_EQ(std::count(helpers.begin(), helpers.end(), h), 1);
    }
    for (const NodeId u : c.candidates) {
      const auto nu = c.topo->neighbors(u);
      const bool has_holder = std::any_of(nu.begin(), nu.end(), [&](NodeId h) {
        return c.first_rx[h] != kNeverSlot;
      });
      const bool covered = std::any_of(nu.begin(), nu.end(), [&](NodeId h) {
        return std::find(helpers.begin(), helpers.end(), h) != helpers.end();
      });
      EXPECT_EQ(covered, has_holder) << "candidate " << u;
    }
  });
}

TEST(RepairWave, BestHelperMinimisesRankThenReceptionThenId) {
  for_each_case([](const WaveCase& c) {
    for (const NodeId u : c.candidates) {
      NodeId expected = kInvalidNode;
      for (const NodeId h : c.topo->neighbors(u)) {
        if (c.first_rx[h] == kNeverSlot) continue;
        if (expected == kInvalidNode ||
            std::make_tuple(mixed_rank(h, u), c.first_rx[h], h) <
                std::make_tuple(mixed_rank(expected, u), c.first_rx[expected],
                                expected)) {
          expected = h;
        }
      }
      EXPECT_EQ(repair_wave::best_helper(*c.topo, u, c.first_rx, mixed_rank),
                expected)
          << "candidate " << u;
    }
  });
}

TEST(RepairWave, TopologyAndImplicitLatticeChooseTheSameWave) {
  for_each_case([](const WaveCase& c) {
    const auto agree = [&](const auto& rank) {
      const std::vector<NodeId> ref =
          repair_wave::pick_helpers(*c.topo, c.candidates, c.first_rx, rank);
      const std::vector<NodeId> bulk =
          repair_wave::pick_helpers(c.lat, c.candidates, c.first_rx, rank);
      EXPECT_EQ(ref, bulk);
      EXPECT_EQ(repair_wave::pack_two_hop(*c.topo, ref),
                repair_wave::pack_two_hop(c.lat, bulk));
    };
    agree(mixed_rank);
    agree([](NodeId, NodeId) { return 0; });
  });
}

// Adaptive ARQ packs only the prefix of a wave its retry budget pays for;
// first-fit is online, so that prefix lands in the slots it would have had.
TEST(RepairWave, APrefixPacksAsInsideTheWholeWave) {
  for_each_case([](const WaveCase& c) {
    const std::vector<NodeId> helpers = mixed_wave(c);
    const std::vector<Slot> whole =
        repair_wave::pack_two_hop(*c.topo, helpers);
    for (std::size_t keep = 0; keep <= helpers.size(); keep += 3) {
      const std::span<const NodeId> prefix(helpers.data(), keep);
      const std::vector<Slot> part =
          repair_wave::pack_two_hop(*c.topo, prefix);
      EXPECT_TRUE(std::equal(part.begin(), part.end(), whole.begin()));
    }
  });
}

TEST(RepairWave, AppendWaveSchedulesEachHelperAtItsSlot) {
  RelayPlan plan = RelayPlan::empty(4, 0);
  plan.set_offsets(2, {1});
  const std::vector<Slot> first_rx = {0, 3, 2, kNeverSlot};
  const std::vector<NodeId> helpers = {1, 2};
  const std::vector<Slot> slots = {0, 1};
  repair_wave::append_wave(plan, helpers, slots, first_rx, 10);
  EXPECT_TRUE(std::ranges::equal(plan.offsets(1), std::vector<Slot>{7}));
  EXPECT_TRUE(std::ranges::equal(plan.offsets(2), std::vector<Slot>{1, 9}));
  EXPECT_TRUE(std::ranges::equal(plan.offsets(0), std::vector<Slot>{1}));
}

}  // namespace
}  // namespace wsn
