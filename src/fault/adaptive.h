#pragma once

#include <cstddef>
#include <span>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"

/// Adaptive recovery: NACK/timeout-driven retransmission with capped
/// exponential backoff and a retry budget.
///
/// The static policies in fault/recovery.h spend their redundancy blind:
/// repeat-k pays k times the plan whether or not anything was lost.  The
/// adaptive scheme spends only on observed damage.  After the plan's
/// timeline runs out, nodes that never decoded the message are treated as
/// having NACKed (equivalently: their neighbors' delivery timers expired),
/// and for each stranded node one neighboring holder retransmits.  Waves
/// of retransmissions are separated by an exponentially growing, capped
/// backoff gap -- bursty channels (Gilbert-Elliott) that ate one wave are
/// given time to leave the bad state before the next -- and the whole
/// recovery is bounded by a retry budget.  When the budget (or the round
/// limit) is exhausted the broadcast degrades gracefully: the outcome
/// reports partial coverage and the report says exactly how many nodes
/// stayed unrepaired; nothing aborts.
///
/// Determinism & replay: the fault models are counter-mode -- every
/// loss is a pure function of (seed, link, slot) -- and every retry wave
/// is scheduled strictly after the previous timeline's last transmission,
/// so re-simulating an augmented plan replays the identical prefix (the
/// resolver's trick).  The iterative probe-and-repair loop is therefore
/// exactly equivalent to a single run of the final plan, which is what
/// gets executed under the caller's observer.  Without an observer, a
/// loop that stopped without editing the plan returns its last probe
/// instead: that probe already was the final run.
///
/// Link awareness: when a CSR quality span (or the topology's annotation)
/// is available, each stranded node's helper is the message-holding
/// neighbor with the *best delivery probability toward it* -- retries ride
/// the good links -- falling back to the resolver's earliest-reached
/// tie-break on a quality-less medium.
namespace wsn {

struct AdaptiveArqConfig {
  /// Maximum repair waves.  Each wave retransmits toward every stranded
  /// node at most once, so coverage grows monotonically across waves.
  std::size_t max_rounds = 8;
  /// Backoff gap (slots) between a timeline's end and wave 0; doubles per
  /// wave.  Must be >= 1.
  Slot base_backoff = 2;
  /// Cap on the backoff gap.
  Slot max_backoff = 32;
  /// Total extra transmissions the recovery may spend across all waves.
  std::size_t retry_budget = 256;
};

struct AdaptiveArqReport {
  /// Repair waves actually scheduled.
  std::size_t rounds = 0;
  /// Extra transmissions spent (<= config.retry_budget).
  std::size_t retries = 0;
  /// Echo of config.retry_budget, for downstream accounting (audit).
  std::size_t budget = 0;
  /// True when recovery stopped because the budget ran out with stranded
  /// nodes remaining.
  bool budget_exhausted = false;
  /// Nodes still without the message when recovery stopped (0 = full
  /// coverage).  Includes crashed and disconnected nodes.
  std::size_t unrepaired = 0;
};

/// Runs `base_plan` under `options` with adaptive recovery on top and
/// returns the final outcome (observed under `options.observer`, if any).
/// `quality` is an optional CSR-ordered delivery-probability span used for
/// helper selection; empty falls back to the topology's own annotation
/// (which may also be absent).  `options.battery` must be null: battery
/// drain is stateful across runs and would make the probe loop diverge
/// from the final replay.
[[nodiscard]] BroadcastOutcome run_adaptive_arq(
    const Topology& topo, const RelayPlan& base_plan,
    const SimOptions& options = {}, const AdaptiveArqConfig& config = {},
    AdaptiveArqReport* report = nullptr,
    std::span<const double> quality = {});

}  // namespace wsn
