#include "fault/adaptive.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "protocol/repair_wave.h"

namespace wsn {

BroadcastOutcome run_adaptive_arq(const Topology& topo,
                                  const RelayPlan& base_plan,
                                  const SimOptions& options,
                                  const AdaptiveArqConfig& config,
                                  AdaptiveArqReport* report,
                                  std::span<const double> quality) {
  const std::size_t n = topo.num_nodes();
  WSN_EXPECTS(base_plan.num_nodes() == n);
  WSN_EXPECTS(config.base_backoff >= 1);
  WSN_EXPECTS(config.max_backoff >= config.base_backoff);
  WSN_EXPECTS(options.battery == nullptr);
  WSN_EXPECTS(quality.empty() ||
              quality.size() == topo.num_directed_links());

  const auto delivery = [&](NodeId a, NodeId b) {
    if (quality.empty()) return topo.link_delivery(a, b);
    const std::size_t index = topo.link_index(a, b);
    return index == Topology::kNoLink ? 1.0 : quality[index];
  };

  // Probe runs are recovery internals, like the resolver's: they must not
  // leak events into the caller's observer.
  SimOptions probe_options = options;
  probe_options.observer = nullptr;

  AdaptiveArqReport local;
  local.budget = config.retry_budget;
  std::size_t budget = config.retry_budget;

  RelayPlan plan = base_plan;
  Simulator sim(n);
  BroadcastOutcome outcome;  // the last probe's
  bool probed_plan = false;  // whether `outcome` is the run of `plan`

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    outcome = sim.run(topo, plan, probe_options);
    probed_plan = true;
    const std::vector<NodeId> unreached = outcome.unreached();
    if (unreached.empty()) break;
    if (budget == 0) {
      local.budget_exhausted = true;
      break;
    }

    const Slot t_end = outcome.timeline_end();
    // Capped exponential backoff between the dead timeline and this wave;
    // bursty channels get time to leave the bad state before we respend.
    const std::uint64_t raw = static_cast<std::uint64_t>(config.base_backoff)
                              << std::min<std::size_t>(round, 32);
    const Slot gap = static_cast<Slot>(
        std::min<std::uint64_t>(raw, config.max_backoff));

    // One helper transmission covers all of its stranded neighbors at
    // once.  Prefer the holder with the best delivery probability toward
    // the stranded node (ride the good links); ties go to the resolver's
    // order, earliest reception then lowest id.
    std::vector<NodeId> helpers = repair_wave::pick_helpers(
        topo, unreached, outcome.first_rx,
        [&](NodeId h, NodeId u) { return -delivery(h, u); });
    if (helpers.empty()) break;  // remainder disconnected or crashed
    if (helpers.size() > budget) {
      local.budget_exhausted = true;
      helpers.resize(budget);
    }
    budget -= helpers.size();
    local.retries += helpers.size();

    // Pack the wave into fresh slots after the backoff gap, serializing
    // helpers within 2 hops of each other so retries never collide.
    // First-fit is online, so the budget's prefix packs as it would have
    // inside the whole wave.
    const std::vector<Slot> slots = repair_wave::pack_two_hop(topo, helpers);

    // t_end counts transmissions that fired.  A helper whose own last
    // scheduled transmission fell in a crash outage never fired, and that
    // slot can lie at or past the wave; start the wave after it so every
    // node's offsets stay strictly increasing.
    Slot wave_start = t_end + gap;
    for (std::size_t i = 0; i < helpers.size(); ++i) {
      const NodeId h = helpers[i];
      const auto& offsets = plan.tx_offsets[h];
      if (offsets.empty()) continue;
      const Slot last_scheduled = outcome.first_rx[h] + offsets.back();
      if (last_scheduled >= wave_start + slots[i]) {
        wave_start = last_scheduled - slots[i] + 1;
      }
    }
    repair_wave::append_wave(plan, helpers, slots, outcome.first_rx,
                             wave_start);
    probed_plan = false;
    local.rounds += 1;
  }

  // The final plan replays the identical prefix (counter-mode faults, all
  // retries appended past the old timeline), now under the caller's
  // observer.  The probes differ from `options` only in the observer, so
  // without one the last probe of an unedited plan already is that run.
  const BroadcastOutcome final_outcome =
      probed_plan && options.observer == nullptr
          ? std::move(outcome)
          : sim.run(topo, plan, options);
  local.unrepaired = final_outcome.unreached().size();
  if (local.unrepaired > 0 && budget == 0) local.budget_exhausted = true;
  if (report != nullptr) *report = local;
  return final_outcome;
}

}  // namespace wsn
