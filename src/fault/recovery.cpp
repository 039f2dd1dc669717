#include "fault/recovery.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "protocol/resolver.h"

namespace wsn {

std::string_view to_string(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::kNone:
      return "none";
    case RecoveryPolicy::kRepeatK:
      return "repeat-k";
    case RecoveryPolicy::kEchoRepair:
      return "echo-repair";
    case RecoveryPolicy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

RecoveryPolicy parse_recovery_policy(std::string_view name) {
  if (name == "none") return RecoveryPolicy::kNone;
  if (name == "repeat-k") return RecoveryPolicy::kRepeatK;
  if (name == "echo-repair") return RecoveryPolicy::kEchoRepair;
  if (name == "adaptive") return RecoveryPolicy::kAdaptive;
  WSN_EXPECTS(false && "unknown recovery policy");
  return RecoveryPolicy::kNone;
}

RelayPlan repeat_k(RelayPlan plan, unsigned k) {
  WSN_EXPECTS(k >= 1);
  if (k == 1) return plan;
  for (auto& offsets : plan.tx_offsets) {
    if (offsets.empty()) continue;
    const std::size_t base = offsets.size();
    const Slot period = offsets.back();
    offsets.reserve(base * k);
    for (unsigned r = 1; r < k; ++r) {
      for (std::size_t i = 0; i < base; ++i) {
        // Strictly increasing: copy r starts at o_1 + r*o_m > r*o_m, the
        // previous copy's last offset.
        offsets.push_back(offsets[i] + static_cast<Slot>(r) * period);
      }
    }
  }
  plan.validate();
  return plan;
}

RelayPlan echo_repair(const Topology& topo, RelayPlan plan,
                      const SimOptions& options) {
  const std::size_t n = topo.num_nodes();
  WSN_EXPECTS(plan.num_nodes() == n);

  // The probe run reports its own decodes: each kRx or kDuplicate event
  // is one successful decode, and a node's kRx names its deliverer.  The
  // sink cannot wrap: a transmission logs at most itself plus one event
  // per neighbor, and a node arms its relay schedule at most once.
  std::size_t max_events = n;
  for (NodeId v = 0; v < n; ++v) {
    max_events += plan.tx_offsets[v].size() * (1 + topo.degree(v));
  }
  EventSink sink(max_events);
  Observer observer(&sink);
  SimOptions probe = options;
  probe.observer = &observer;
  const BroadcastOutcome outcome = simulate_broadcast(topo, plan, probe);
  WSN_ASSERT(sink.dropped() == 0);

  std::vector<std::uint32_t> decodes(n, 0);
  std::vector<NodeId> deliverer(n, kInvalidNode);
  for (const Event& event : sink.events()) {
    if (event.kind == EventKind::kRx) deliverer[event.node] = event.peer;
    if (event.kind == EventKind::kRx || event.kind == EventKind::kDuplicate) {
      decodes[event.node] += 1;
    }
  }

  const Slot t_end = outcome.timeline_end();

  // Fragile: reached with a single successful decode -- one lost packet
  // away from being stranded.  (Unreached nodes are the resolver's
  // problem, not a recovery policy's.)
  std::vector<char> fragile(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (u != plan.source && outcome.first_rx[u] != kNeverSlot &&
        decodes[u] == 1) {
      fragile[u] = 1;
    }
  }

  // One echo covers every fragile neighbor of its helper at once; prefer a
  // helper other than the node's sole deliverer so the two deliveries ride
  // independent links.
  std::vector<NodeId> helpers;
  std::vector<char> covered(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (!fragile[u] || covered[u]) continue;
    NodeId helper = kInvalidNode;
    Slot helper_rx = kNeverSlot;
    bool helper_is_deliverer = true;
    for (NodeId h : topo.neighbors(u)) {
      if (outcome.first_rx[h] == kNeverSlot) continue;
      const bool is_deliverer = h == deliverer[u];
      const bool better =
          helper == kInvalidNode ||
          (helper_is_deliverer && !is_deliverer) ||
          (helper_is_deliverer == is_deliverer &&
           (outcome.first_rx[h] < helper_rx ||
            (outcome.first_rx[h] == helper_rx && h < helper)));
      if (better) {
        helper = h;
        helper_rx = outcome.first_rx[h];
        helper_is_deliverer = is_deliverer;
      }
    }
    if (helper == kInvalidNode) continue;
    helpers.push_back(helper);
    for (NodeId w : topo.neighbors(helper)) {
      if (fragile[w]) covered[w] = 1;
    }
  }

  // Pack echoes into fresh slots after the timeline, 2-hop-separated (the
  // resolver's rule), so concurrent echoes cannot collide at any receiver.
  std::vector<std::vector<NodeId>> slots;
  for (NodeId h : helpers) {
    std::size_t s = 0;
    for (;; ++s) {
      if (s == slots.size()) {
        slots.emplace_back();
        break;
      }
      const bool clash = std::any_of(
          slots[s].begin(), slots[s].end(),
          [&](NodeId other) { return within_two_hops(topo, h, other); });
      if (!clash) break;
    }
    slots[s].push_back(h);

    const Slot tx_slot = t_end + 1 + static_cast<Slot>(s);
    const Slot rx_slot = outcome.first_rx[h];
    auto& offsets = plan.tx_offsets[h];
    const Slot offset = tx_slot - rx_slot;
    WSN_ASSERT(offsets.empty() || offset > offsets.back());
    offsets.push_back(offset);
  }
  plan.validate();
  return plan;
}

RelayPlan apply_recovery(const Topology& topo, RelayPlan plan,
                         RecoveryPolicy policy, unsigned k) {
  switch (policy) {
    case RecoveryPolicy::kNone:
      return plan;
    case RecoveryPolicy::kRepeatK:
      return repeat_k(std::move(plan), k);
    case RecoveryPolicy::kEchoRepair:
      return echo_repair(topo, std::move(plan));
    case RecoveryPolicy::kAdaptive:
      // Adaptation happens at run time (fault/adaptive.h's ARQ loop), not
      // as a plan rewrite; callers route kAdaptive to run_adaptive_arq.
      return plan;
  }
  return plan;
}

}  // namespace wsn
