#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "sim/plan.h"

/// One repair wave: choose a helper for each node that needs one more
/// delivery, and pack the helpers into fresh slots past a timeline so that
/// none of their transmissions can collide.
///
/// Three places schedule such waves, exactly in the spirit of the paper's
/// §3.3 ("we know where the collision will occur and which node needs to
/// retransmit"): the resolver's guaranteed phase for unreached nodes,
/// adaptive ARQ (fault/adaptive.h) for nodes a lossy run stranded, and
/// echo-repair (fault/recovery.h) for nodes reached by a single decode.
/// They differ only in which helper they prefer -- a `rank(h, u)` functor,
/// smaller is better -- and in the slot the wave starts at:
///
///   * the resolver ranks every helper 0 (earliest holder wins);
///   * adaptive ARQ ranks by -delivery(h, u) (ride the good links);
///   * echo-repair ranks by `h == deliverer[u]` (a second, independent
///     link).
///
/// The slot rule is the deterministic uniform-power interference model:
/// two transmitters within 2 hops of each other must not share a slot,
/// since a common neighbour would hear both and decode neither.
///
/// `Net` is anything with neighbors(id) (sorted ascending; span or value
/// type) and adjacent(a, b), so Topology and ImplicitLattice both qualify
/// and choose identical helpers and slots on the same lattice.
namespace wsn::repair_wave {

/// True if `a` and `b` are within 2 hops: adjacent, or sharing a neighbor.
template <typename Net>
[[nodiscard]] bool within_two_hops(const Net& net, NodeId a, NodeId b) {
  if (net.adjacent(a, b)) return true;
  // Bind both sets to locals: neighbors() may return a value type, and
  // begin()/end() drawn from two separate temporaries would be UB.
  const auto na = net.neighbors(a);
  const auto nb = net.neighbors(b);
  // Merge-walk two sorted ranges looking for a common element.
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < na.size() && ib < nb.size()) {
    if (na[ia] == nb[ib]) return true;
    if (na[ia] < nb[ib]) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

/// The neighbour of `u` that holds the message (first_rx != kNeverSlot)
/// with the smallest key (rank(h, u), first_rx[h], h), or kInvalidNode if
/// no neighbour holds it.
template <typename Net, typename Rank>
[[nodiscard]] NodeId best_helper(const Net& net, NodeId u,
                                 std::span<const Slot> first_rx,
                                 const Rank& rank) {
  NodeId best = kInvalidNode;
  decltype(rank(u, u)) best_rank{};
  Slot best_rx = kNeverSlot;
  // Neighbours ascend, so a tie on (rank, first_rx) keeps the lower id.
  for (const NodeId h : net.neighbors(u)) {
    const Slot rx = first_rx[h];
    if (rx == kNeverSlot) continue;  // no message
    const auto r = rank(h, u);
    if (best == kInvalidNode || r < best_rank ||
        (r == best_rank && rx < best_rx)) {
      best = h;
      best_rank = r;
      best_rx = rx;
    }
  }
  return best;
}

/// Walks every candidate (ascending ids) in order and gives each one that
/// no earlier helper covers its best_helper; one helper transmission covers
/// all of its candidate neighbours at once.  A candidate with no neighbour
/// holding the message gets none.  Coverage is kept per position in
/// `candidates`, so the work scales with the candidates, not with n.
template <typename Net, typename Rank>
[[nodiscard]] std::vector<NodeId> pick_helpers(
    const Net& net, std::span<const NodeId> candidates,
    std::span<const Slot> first_rx, const Rank& rank) {
  std::vector<NodeId> helpers;
  std::vector<char> covered(candidates.size(), 0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (covered[i]) continue;
    const NodeId helper = best_helper(net, candidates[i], first_rx, rank);
    if (helper == kInvalidNode) continue;
    helpers.push_back(helper);
    // Only later candidates still matter; both ranges ascend, so the
    // search resumes where the last neighbour's ended.
    auto it = candidates.begin() + static_cast<std::ptrdiff_t>(i) + 1;
    for (const NodeId w : net.neighbors(helper)) {
      it = std::lower_bound(it, candidates.end(), w);
      if (it == candidates.end()) break;
      if (*it == w) {
        covered[static_cast<std::size_t>(it - candidates.begin())] = 1;
      }
    }
  }
  return helpers;
}

/// First-fit slot index of each helper, in order: the lowest slot holding
/// no helper within 2 hops of it.
template <typename Net>
[[nodiscard]] std::vector<Slot> pack_two_hop(const Net& net,
                                             std::span<const NodeId> helpers) {
  std::vector<std::vector<NodeId>> slots;  // slots[s] = helpers in slot s
  std::vector<Slot> slot_of;
  slot_of.reserve(helpers.size());
  for (const NodeId h : helpers) {
    const auto clashes = [&](NodeId other) {
      return within_two_hops(net, h, other);
    };
    std::size_t s = 0;
    while (s < slots.size() &&
           std::any_of(slots[s].begin(), slots[s].end(), clashes)) {
      ++s;
    }
    if (s == slots.size()) slots.emplace_back();
    slots[s].push_back(h);
    slot_of.push_back(static_cast<Slot>(s));
  }
  return slot_of;
}

/// Appends to each helpers[i]'s offsets one transmission in slot
/// `start + slots[i]`, which must fall after its first reception and after
/// its last scheduled transmission.
inline void append_wave(RelayPlan& plan, std::span<const NodeId> helpers,
                        std::span<const Slot> slots,
                        std::span<const Slot> first_rx, Slot start) {
  WSN_ASSERT(helpers.size() == slots.size());
  for (std::size_t i = 0; i < helpers.size(); ++i) {
    const NodeId h = helpers[i];
    const Slot tx_slot = start + slots[i];
    WSN_ASSERT(tx_slot > first_rx[h]);
    plan.append_offset(h, tx_slot - first_rx[h]);
  }
}

}  // namespace wsn::repair_wave
