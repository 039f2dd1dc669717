#include "fault/recovery.h"

#include <vector>

#include "common/assert.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "protocol/repair_wave.h"

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

std::optional<RecoveryPolicy> parse_recovery_policy(std::string_view name) {
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kNone, RecoveryPolicy::kRepeatK,
        RecoveryPolicy::kEchoRepair, RecoveryPolicy::kAdaptive}) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
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

  // Fragile: reached with a single successful decode -- one lost packet
  // away from being stranded.  (Unreached nodes are the resolver's
  // problem, not a recovery policy's.)
  std::vector<NodeId> fragile;
  for (NodeId u = 0; u < n; ++u) {
    if (u != plan.source && outcome.first_rx[u] != kNeverSlot &&
        decodes[u] == 1) {
      fragile.push_back(u);
    }
  }

  // One echo covers every fragile neighbor of its helper at once; prefer a
  // helper other than the node's sole deliverer so the two deliveries ride
  // independent links.  Echoes go into fresh slots after the timeline,
  // 2-hop-separated, so concurrent echoes cannot collide at any receiver.
  const std::vector<NodeId> helpers = repair_wave::pick_helpers(
      topo, fragile, outcome.first_rx,
      [&](NodeId h, NodeId u) { return h == deliverer[u]; });
  const std::vector<Slot> slots = repair_wave::pack_two_hop(topo, helpers);
  repair_wave::append_wave(plan, helpers, slots, outcome.first_rx,
                           outcome.timeline_end() + 1);
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
