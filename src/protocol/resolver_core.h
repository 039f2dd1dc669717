#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "protocol/repair_wave.h"
#include "protocol/resolver.h"
#include "sim/plan.h"
#include "sim/simulator.h"

/// The resolver algorithm, templated over the network representation.
///
/// resolve_full_reachability (resolver.h) must produce the *same plan* on
/// a materialized Topology and on an ImplicitLattice of the same
/// family/dims -- otherwise the bulk engine's bit-exactness contract stops
/// at raw protocol plans.  Rather than maintain two copies of a subtle
/// algorithm, the whole body lives here as a template over
///
///   * `Net`  -- num_nodes(), neighbors(id) (sorted ascending; span or
///     value type), adjacent(a, b);
///   * `SimT` -- run(net, plan, options) -> BroadcastOutcome, reusing its
///     scratch across probes (Simulator and BulkSimulator both qualify),
///     and optionally rerun(net, base, overlay, prev, options), a
///     differential re-probe (BulkSimulator::rerun).
///
/// Probes are the expensive part -- at 10⁶ nodes a full one is a bulk
/// broadcast -- so every distinct plan is simulated exactly once, in full
/// or as a re-probe: each phase keeps the outcome of the plan it holds
/// and hands it on, and the last probe, always of the returned plan, can
/// go back to the caller.  On an engine with a re-probe (Prober below)
/// the raw plan runs in full once; every later probe re-simulates only
/// what the lists edited since can change.  On any other engine each
/// probe runs the whole plan.  Either way the engine runs the plan being
/// edited as it stands: edits go through its overlay (sim/plan.h), and
/// nothing is copied or converted between probes.  The bookkeeping
/// between probes is per victim (per unreached node) and per edited
/// offset list, never per node.
///
/// Every decision the resolver makes (helper choice by min first_rx then
/// min id, quiet-slot probing, 2-hop slot packing; protocol/repair_wave.h)
/// consumes only neighbor sets and simulation outcomes; byte-identical
/// neighbor iteration plus bit-identical outcomes therefore force
/// identical resolved plans, which tests/test_implicit_plan.cpp asserts
/// per family.
namespace wsn::resolver_core {

/// Position of `v` in `victims`, a probe's unreached nodes (ascending) that
/// must contain it.  Everything the resolver tracks per victim lives at
/// that position, so its bookkeeping scales with the unreached set rather
/// than with n.
[[nodiscard]] inline std::size_t victim_index(
    const std::vector<NodeId>& victims, NodeId v) {
  const auto it = std::lower_bound(victims.begin(), victims.end(), v);
  WSN_ASSERT(it != victims.end() && *it == v);
  return static_cast<std::size_t>(it - victims.begin());
}

/// The resolver's helper rank (repair_wave.h): every holder ranks alike,
/// so the earliest to receive, then the lowest id, helps.
inline constexpr auto kAnyHelper = [](NodeId, NodeId) { return 0; };

/// Engines with a differential re-probe (BulkSimulator::rerun).
template <typename SimT, typename Net>
concept Reprobing = requires(SimT& sim, const Net& net, const RelayPlan& plan,
                             std::span<const OffsetEdit> ran,
                             const BroadcastOutcome& prev,
                             const SimOptions& options) {
  {
    sim.rerun(net, plan, ran, prev, options)
  } -> std::same_as<BroadcastOutcome>;
};

/// The resolver's probes of the plan it edits.  On an engine with a
/// re-probe the first probe runs the plan in full; the prober then keeps
/// every list edited since, as the last probe ran it, so each later probe
/// is a rerun of the plan as it stands with those lists as they ran.
/// Anywhere else each probe runs the whole plan.  Either way the prober
/// holds no plan of its own, only the lists it was told were edited.
template <typename Net, typename SimT>
class Prober {
 public:
  Prober(const Net& net, SimT& sim, const SimOptions& options)
      : net_(net), sim_(sim), options_(options) {}

  /// The first probe, of the plan as the resolver received it.
  BroadcastOutcome first(const RelayPlan& plan) {
    return sim_.run(net_, plan, options_);
  }

  /// Called before `plan`'s list at v is edited.
  void will_edit(const RelayPlan& plan, NodeId v) {
    if constexpr (kReprobing) {
      // Every edit is announced, so a list not yet recorded is still the
      // one the first probe ran, and every probe since.
      const std::span<const Slot> offsets = plan.offsets(v);
      ran_.try_emplace(v, offsets.begin(), offsets.end());
    }
  }

  /// A probe of `plan`; `prev` is the outcome of the last probe, or of the
  /// plan the resolver rolled back to (see ran_as).
  BroadcastOutcome next(const RelayPlan& plan, const BroadcastOutcome& prev) {
    if constexpr (kReprobing) {
      ran_spans_.clear();
      for (const auto& [v, ran] : ran_) ran_spans_.push_back({v, ran});
      BroadcastOutcome out = sim_.rerun(net_, plan, ran_spans_, prev, options_);
      ran_as(plan);
      return out;
    } else {
      return sim_.run(net_, plan, options_);
    }
  }

  /// Records `plan`'s lists as the ones the outcome the next probe starts
  /// from ran: after each probe, and after a roll-back to an earlier plan.
  void ran_as(const RelayPlan& plan) {
    if constexpr (kReprobing) {
      for (auto& [v, ran] : ran_) {
        const std::span<const Slot> offsets = plan.offsets(v);
        ran.assign(offsets.begin(), offsets.end());
      }
    }
  }

 private:
  static constexpr bool kReprobing = Reprobing<SimT, Net>;

  const Net& net_;
  SimT& sim_;
  const SimOptions& options_;
  std::map<NodeId, std::vector<Slot>> ran_;  // edited lists, as last ran
  std::vector<OffsetEdit> ran_spans_;
};

/// Clears `lists` and sizes it to `count` empty lists, keeping the
/// capacity of the ones it already had.
inline void reset_lists(std::vector<std::vector<Slot>>& lists,
                        std::size_t count) {
  for (auto& list : lists) list.clear();
  lists.resize(count);
}

/// Optimistic repair phase: gives helpers an immediate retransmission (one
/// slot after their last scheduled transmission), the way the paper's own
/// gray nodes retransmit "in next time slot".  Early retransmissions change
/// downstream collision dynamics, so this iterates to a fixpoint, keeps the
/// best plan seen, and gives up after a few non-improving rounds -- the
/// guaranteed quiet-slot phase finishes whatever is left.
///
/// Each distinct plan is simulated once.  `best` receives the outcome of
/// the returned plan, and `report.repairs` the offsets it gained over the
/// input, if any.  The working plan is the best plan plus the offset
/// lists edited since, in its overlay; an undo log of those lists' old
/// contents takes it back to the best plan on a stall or exit, so no
/// whole plan is copied or counted.
template <typename Net, typename SimT>
RelayPlan optimistic_repairs(const Net& net, RelayPlan plan,
                             ResolveReport& report, Prober<Net, SimT>& probe,
                             BroadcastOutcome& best) {
  constexpr std::size_t kPatience = 3;
  constexpr std::size_t kMaxIters = 48;
  constexpr Slot kMaxProbe = 8;  // how far past the helper's last tx we look

  best = probe.first(plan);
  std::vector<NodeId> victims = best.unreached();  // of the current plan
  std::size_t best_unreached = victims.size();
  BroadcastOutcome trial;  // outcome of `plan` while it differs from best
  std::vector<std::pair<NodeId, std::vector<Slot>>> undo;
  const auto will_edit = [&](NodeId v) {
    probe.will_edit(plan, v);
    const std::span<const Slot> offsets = plan.offsets(v);
    undo.emplace_back(v, std::vector<Slot>(offsets.begin(), offsets.end()));
  };
  // Offsets the working plan and the best plan hold over the input: the
  // optimistic phase also *prunes* stranded relays, so either can be
  // negative.
  std::int64_t gained = 0;
  std::int64_t best_gained = 0;
  std::size_t stall = 0;

  // Per victim: the sorted slots at which some neighbor transmitted, which
  // lets a repair be placed into a slot that is quiet at every victim; the
  // slots this round's repairs already claimed, so two repairs placed in
  // the same round don't collide at a shared victim; and whether a repair
  // already covers it.
  std::vector<std::vector<Slot>> heard_slots;
  std::vector<std::vector<Slot>> claimed;
  std::vector<char> covered;
  // Bit v: v neighbours some victim, so its transmissions are heard by
  // one.  Adjacency is symmetric, so only these nodes' records feed
  // heard_slots.
  std::vector<std::uint64_t> near_victim((net.num_nodes() + 63) / 64);
  const auto is_near = [&](NodeId v) {
    return (near_victim[v / 64] >> (v % 64) & 1u) != 0;
  };

  // The loop runs only while the current plan strands someone: it is
  // either the best plan (best_unreached > 0) or a trial no better.
  for (std::size_t iter = 0; iter < kMaxIters && best_unreached > 0; ++iter) {
    const BroadcastOutcome& outcome = undo.empty() ? best : trial;
    const std::vector<Slot>& first_rx = outcome.first_rx;
    const auto unreached = [&](NodeId v) { return first_rx[v] == kNeverSlot; };

    // Records come in slot order, so each victim's list is sorted.
    reset_lists(heard_slots, victims.size());
    std::fill(near_victim.begin(), near_victim.end(), 0);
    for (const NodeId u : victims) {
      for (const NodeId h : net.neighbors(u)) {
        near_victim[h / 64] |= std::uint64_t{1} << (h % 64);
      }
    }
    for (const TxRecord& rec : outcome.transmissions) {
      if (!is_near(rec.node)) continue;
      for (NodeId u : net.neighbors(rec.node)) {
        if (unreached(u)) {
          heard_slots[victim_index(victims, u)].push_back(rec.slot);
        }
      }
    }
    reset_lists(claimed, victims.size());
    covered.assign(victims.size(), 0);

    std::size_t added = 0;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (covered[i]) continue;
      const NodeId helper =
          repair_wave::best_helper(net, victims[i], first_rx, kAnyHelper);
      if (helper == kInvalidNode) continue;
      const Slot helper_rx = first_rx[helper];

      // Place the retransmission in the earliest slot after the helper's
      // last transmission that (a) is quiet at each of its unreached
      // neighbors, so the repair actually lands, and (b) is not the slot in
      // which any already-reached neighbor got its *first* reception, which
      // the new transmission would knock out.
      const std::span<const Slot> offsets = plan.offsets(helper);
      const Slot last_tx =
          offsets.empty() ? helper_rx : helper_rx + offsets.back();
      Slot chosen = 0;
      for (Slot s = last_tx + 1; s <= last_tx + kMaxProbe; ++s) {
        bool ok = true;
        for (NodeId w : net.neighbors(helper)) {
          if (unreached(w)) {
            const std::size_t j = victim_index(victims, w);
            if (std::binary_search(heard_slots[j].begin(),
                                   heard_slots[j].end(), s) ||
                std::find(claimed[j].begin(), claimed[j].end(), s) !=
                    claimed[j].end()) {
              ok = false;
              break;
            }
          } else if (first_rx[w] == s) {
            ok = false;
            break;
          }
        }
        if (ok) {
          chosen = s;
          break;
        }
      }
      if (chosen == 0) continue;  // quiet-slot phase will handle this one

      will_edit(helper);
      plan.append_offset(helper, chosen - helper_rx);
      gained += 1;
      added += 1;
      for (NodeId w : net.neighbors(helper)) {
        if (!unreached(w)) continue;
        const std::size_t j = victim_index(victims, w);
        covered[j] = 1;
        claimed[j].push_back(chosen);
        // A stranded relay whose whole neighborhood is already reached
        // forwards nothing anyone needs; getting it the message late and
        // then letting it transmit would only re-collide downstream.
        // Prune its transmissions (it still counts as reached).
        const auto nw = net.neighbors(w);
        const bool all_neighbors_reached =
            std::none_of(nw.begin(), nw.end(), unreached);
        if (all_neighbors_reached && w != plan.source() &&
            plan.is_relay(w)) {
          will_edit(w);
          gained -= static_cast<std::int64_t>(plan.offsets(w).size());
          plan.clear_offsets(w);
        }
      }
    }
    if (added == 0) break;  // interior void; quiet-slot phase handles it
    report.rounds += 1;

    trial = probe.next(plan, outcome);
    victims = trial.unreached();
    if (victims.size() < best_unreached) {
      std::swap(best, trial);
      best_unreached = victims.size();
      best_gained = gained;
      undo.clear();
      stall = 0;
    } else if (++stall >= kPatience) {
      break;
    }
  }
  // Newest first, so a list edited twice ends up with its oldest contents.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    plan.set_offsets(it->first, std::move(it->second));
  }
  if (!undo.empty()) probe.ran_as(plan);  // the best plan's lists
  if (best_gained > 0) report.repairs += static_cast<std::size_t>(best_gained);
  return plan;
}

/// `outcome`, when non-null, receives the outcome of simulating the
/// returned plan under `caller_options` -- the resolver's own last probe,
/// so plan-then-simulate callers need no further run.  That outcome is the
/// caller's only when the probes run exactly the caller's simulation, so
/// asking for it with an observer (which probes never see) or a battery
/// bank (which every probe drains) is a precondition violation.
template <typename Net, typename SimT>
RelayPlan resolve_full_reachability(const Net& net, RelayPlan plan,
                                    const SimOptions& caller_options,
                                    ResolveReport* report, SimT& sim,
                                    BroadcastOutcome* outcome = nullptr) {
  WSN_EXPECTS(outcome == nullptr || (caller_options.observer == nullptr &&
                                     caller_options.battery == nullptr));
  // Probe simulations are plan-construction internals: they must not leak
  // into the caller's observer (metrics/trace describe requested runs, not
  // the resolver's trial broadcasts).
  SimOptions options = caller_options;
  options.observer = nullptr;

  ResolveReport local;
  const std::size_t n = net.num_nodes();
  WSN_EXPECTS(plan.num_nodes() == n);

  Prober<Net, SimT> probe(net, sim, options);
  BroadcastOutcome current;  // outcome of `plan` as it stands
  plan = optimistic_repairs(net, std::move(plan), local, probe, current);

  const auto finish = [&] {
    if (report != nullptr) *report = local;
    if (outcome != nullptr) *outcome = std::move(current);
  };
  // Each round strictly grows the reached set by the whole boundary of the
  // unreached region, so n rounds is a safe upper bound.
  for (std::size_t round = 0; round < n; ++round) {
    const std::vector<NodeId> victims = current.unreached();
    if (victims.empty()) {
      finish();
      return plan;
    }
    local.rounds += 1;
    const std::vector<Slot>& first_rx = current.first_rx;

    const std::vector<NodeId> helpers =
        repair_wave::pick_helpers(net, victims, first_rx, kAnyHelper);
    if (helpers.empty()) {
      // Nothing adjacent to the reached region: the rest is disconnected.
      local.unreachable = victims.size();
      local.unrepaired = victims.size();
      finish();
      return plan;
    }

    // Repairs go into fresh slots after the old timeline, so the prefix
    // the last probe ran stays as it was.
    const std::vector<Slot> slots = repair_wave::pack_two_hop(net, helpers);
    for (const NodeId h : helpers) probe.will_edit(plan, h);
    repair_wave::append_wave(plan, helpers, slots, first_rx,
                             current.timeline_end() + 1);
    local.repairs += helpers.size();
    current = probe.next(plan, current);
  }

  // Round budget exhausted without convergence.  Each round strictly grows
  // the reached set, so this cannot happen on any topology the simulator
  // accepts -- but degrade gracefully instead of aborting: report what is
  // left unrepaired and return the best plan built so far.
  local.unrepaired = current.unreached().size();
  finish();
  return plan;
}

}  // namespace wsn::resolver_core
