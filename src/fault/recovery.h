#pragma once

#include <optional>
#include <string_view>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"

/// Online-recovery policies: plan rewrites that buy fault tolerance with
/// bounded extra transmissions.
///
/// The paper's plans are minimal by design -- most nodes get the message
/// exactly once -- which makes them maximally fragile: any single lost
/// packet strands a subtree.  A recovery policy takes a `RelayPlan` and
/// returns an augmented plan whose redundancy bounds that damage.  The
/// output is an ordinary plan, so every retransmission's Tx/energy/delay
/// cost flows through the simulator's normal accounting and the resilience
/// harness can price the policy exactly.
///
///   * repeat-k: every relay (source included) transmits its whole offset
///     pattern k times, each repetition shifted by the pattern's span.
///     Protocol-agnostic brute redundancy; Tx cost is exactly k times the
///     base plan's.
///   * echo-repair: targeted redundancy.  A fault-free simulation finds
///     the *fragile* nodes -- those with exactly one successful reception,
///     for whom any single loss is fatal -- and schedules one extra "echo"
///     from a neighboring holder of the message after the plan's timeline,
///     packed into slots by the resolver's repair wave
///     (protocol/repair_wave.h) so echoes never collide.  Cost scales with
///     the number of fragile nodes, not with the plan size.
namespace wsn {

enum class RecoveryPolicy {
  kNone,        // the unmodified plan
  kRepeatK,     // repeat the whole schedule k times
  kEchoRepair,  // redundant helpers for single-reception nodes
  kAdaptive,    // run-time NACK/backoff ARQ (fault/adaptive.h)
};

/// Short stable tag used in CSV output and CLIs: "none", "repeat-k",
/// "echo-repair", "adaptive".
[[nodiscard]] std::string_view to_string(RecoveryPolicy policy) noexcept;

/// Parses the tags `to_string` writes; nullopt for anything else.
[[nodiscard]] std::optional<RecoveryPolicy> parse_recovery_policy(
    std::string_view name);

/// Repeat-k: each relay's offsets {o_1..o_m} become k concatenated copies,
/// copy r shifted by r * o_m.  `k` >= 1; k == 1 returns the plan
/// unchanged.  planned_tx() of the result is exactly k times the input's.
[[nodiscard]] RelayPlan repeat_k(RelayPlan plan, unsigned k);

/// Echo-repair: one extra transmission per fragile-node cluster, placed in
/// fresh slots after the plan's fault-free timeline ends.  `options`
/// configures the probe simulation (leave defaulted unless the plan is
/// meant for a non-default medium); the probe counts decodes through its
/// own observer, which replaces any in `options`.
[[nodiscard]] RelayPlan echo_repair(const Topology& topo, RelayPlan plan,
                                    const SimOptions& options = {});

/// Applies `policy` (`k` is the repeat-k factor; ignored otherwise).
[[nodiscard]] RelayPlan apply_recovery(const Topology& topo, RelayPlan plan,
                                       RecoveryPolicy policy,
                                       unsigned k = 2);

}  // namespace wsn
