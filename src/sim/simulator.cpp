#include "sim/simulator.h"

#include <algorithm>
#include <map>

#include "common/assert.h"
#include "obs/profile.h"
#include "sim/pipeline.h"

namespace wsn {

namespace {

/// End-of-run observability: distribution histograms and the reached
/// gauge.  Counters and the slot-delay histogram are fed inline as the
/// run goes; the per-node energy and per-transmission ETR distributions
/// only exist once the run is complete.
void observe_outcome(const Topology& topo, const BroadcastOutcome& out,
                     Observer& obs) {
  Observer::count(obs.runs);
  if (obs.reached != nullptr) {
    obs.reached->set(static_cast<double>(out.stats.reached));
  }
  if (obs.events_dropped != nullptr && obs.events != nullptr) {
    obs.events_dropped->set(static_cast<double>(obs.events->dropped()));
  }
  if (obs.node_energy != nullptr) {
    for (Joules j : out.node_energy) obs.node_energy->observe(j);
  }
  if (obs.etr != nullptr) {
    for (const TxRecord& rec : out.transmissions) {
      const std::size_t degree = topo.degree(rec.node);
      if (degree == 0) continue;
      obs.etr->observe(static_cast<double>(rec.fresh) /
                       static_cast<double>(degree));
    }
  }
}

}  // namespace

std::vector<NodeId> BroadcastOutcome::unreached() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < first_rx.size(); ++v) {
    if (first_rx[v] == kNeverSlot) out.push_back(v);
  }
  return out;
}

Slot BroadcastOutcome::first_tx(NodeId node) const noexcept {
  for (const TxRecord& rec : transmissions) {
    if (rec.node == node) return rec.slot;
  }
  return kNeverSlot;
}

Slot BroadcastOutcome::timeline_end() const noexcept {
  return transmissions.empty() ? 1
                               : std::max<Slot>(1, transmissions.back().slot);
}

Simulator::Simulator(std::size_t num_nodes) {
  hear_count_.reserve(num_nodes);
  heard_from_.reserve(num_nodes);
  is_transmitting_.reserve(num_nodes);
  touched_.reserve(num_nodes);
  record_of_.reserve(num_nodes);
}

/// The slot loop, compiled twice.  kObserved=false contains no observer
/// code at all -- identical work to the pre-instrumentation simulator, so
/// installing no observer costs nothing -- while kObserved=true carries
/// the event/metric emission inline.  The public entry points dispatch
/// once.
template <bool kObserved>
BroadcastOutcome Simulator::run_impl(const Topology& topo,
                                     const FlatRelayPlan& plan,
                                     const SimOptions& options,
                                     std::span<BroadcastStats> per_packet,
                                     Slot interval) {
  const std::size_t n = topo.num_nodes();
  WSN_EXPECTS(plan.num_nodes() == n);
  WSN_EXPECTS(options.battery == nullptr || options.battery->size() == n);
  plan.validate();

  FaultModel* const faults = options.faults;
  if (faults != nullptr) faults->begin_run();
  [[maybe_unused]] Observer* const obs = options.observer;

  const NodeId source = plan.source();
  const std::size_t packets = per_packet.empty() ? 1 : per_packet.size();
  BroadcastOutcome out;
  out.stats.num_nodes = n;
  // A single broadcast accumulates straight into out.stats; a pipeline's
  // packets each own an entry of `per_packet`, and out.stats keeps the
  // collisions, which no one packet owns.
  BroadcastStats* const stats =
      per_packet.empty() ? &out.stats : per_packet.data();
  // Packet-major: packet p's first reception at v is first_rx[p * n + v].
  out.first_rx.assign(packets * n, kNeverSlot);
  if (options.record_node_energy) out.node_energy.assign(n, 0.0);

  // Re-prime the scratch; `assign` on an already-sized vector is a plain
  // fill, so a reused Simulator starts every run in the exact state a
  // fresh one would without allocating.
  Schedule& schedule = schedule_;
  while (!schedule.empty()) {  // left over from a run cut at max_slots
    spare_slots_.push_back(schedule.extract(schedule.begin()));
  }
  const auto schedule_node = [&](NodeId v, std::uint32_t packet,
                                 Slot received_at) {
    const std::span<const Slot> offsets = plan.offsets(v);
    if constexpr (kObserved) {
      if (!offsets.empty()) {
        Observer::count(obs->relay_activations);
        obs->emit(
            Event{received_at, EventKind::kRelayActivation, v, kInvalidNode,
                  packet, static_cast<std::uint32_t>(offsets.size())});
      }
    }
    for (Slot offset : offsets) {
      slot_entries(received_at + offset).push_back(Pending{v, packet});
    }
  };
  for (std::uint32_t p = 0; p < packets; ++p) {
    const Slot base = p * interval;
    out.first_rx[p * n + source] = base;
    schedule_node(source, p, base);
  }

  hear_count_.assign(n, 0);
  heard_from_.assign(n, kInvalidNode);
  is_transmitting_.assign(n, 0);
  touched_.clear();
  record_of_.assign(n, 0);
  if (packets > 1) tx_packet_.assign(n, 0);
  std::vector<std::uint32_t>& hear_count = hear_count_;
  std::vector<NodeId>& heard_from = heard_from_;
  std::vector<char>& is_transmitting = is_transmitting_;
  std::vector<NodeId>& touched = touched_;
  std::vector<std::size_t>& record_of =
      record_of_;  // transmitter -> index into out.transmissions (valid per slot)
  std::vector<std::uint32_t>& tx_packet = tx_packet_;

  Schedule::node_type swept;  // the slot in hand, recycled on the next turn
  while (!schedule.empty()) {
    if (!swept.empty()) spare_slots_.push_back(std::move(swept));
    swept = schedule.extract(schedule.begin());
    const Slot slot = swept.key();
    std::vector<Pending>& transmitters = swept.mapped();
    if (slot > options.max_slots) break;

    // Deterministic order.  A single broadcast schedules a node at most
    // once per slot (plan offsets are strictly increasing); a pipeline
    // may schedule several packets there, and then the oldest goes out
    // while each younger one defers a slot (dropping duplicates already
    // scheduled there).
    std::sort(transmitters.begin(), transmitters.end());
    if (packets > 1) {
      transmitters.erase(
          std::unique(transmitters.begin(), transmitters.end()),
          transmitters.end());
      std::size_t kept = 0;
      for (const Pending& t : transmitters) {
        if (kept == 0 || transmitters[kept - 1].node != t.node) {
          transmitters[kept++] = t;
          continue;
        }
        std::vector<Pending>& next_slot = slot_entries(slot + 1);
        if (std::find(next_slot.begin(), next_slot.end(), t) ==
            next_slot.end()) {
          next_slot.push_back(t);
          if constexpr (kObserved) {
            Observer::count(obs->pipeline_defers);
            obs->emit(Event{slot, EventKind::kPipelineDefer, t.node,
                            kInvalidNode, t.packet, 1});
          }
        }
      }
      transmitters.resize(kept);
    }

    // Battery-dead nodes drop out of the medium entirely this slot.
    if (options.battery != nullptr) {
      std::erase_if(transmitters, [&](const Pending& t) {
        return !options.battery->alive(t.node);
      });
    }
    // Crashed transmitters lose the scheduled transmission outright (the
    // radio was off when the timer fired): no energy spent, and every
    // would-be hearer's delivery is charged to the crash.
    if (faults != nullptr) {
      std::erase_if(transmitters, [&](const Pending& t) {
        if (faults->node_up(t.node, slot)) return false;
        const auto lost = static_cast<std::uint32_t>(topo.degree(t.node));
        stats[t.packet].lost_to_crash += lost;
        if constexpr (kObserved) {
          Observer::count(obs->lost_to_crash, lost);
          obs->emit(Event{slot, EventKind::kLossCrash, t.node, kInvalidNode,
                          t.packet, lost});
        }
        return true;
      });
    }
    if (transmitters.empty()) continue;

    for (const Pending& t : transmitters) {
      const NodeId v = t.node;
      is_transmitting[v] = 1;
      if (packets > 1) tx_packet[v] = t.packet;
      record_of[v] = out.transmissions.size();
      out.transmissions.push_back(TxRecord{slot, v, 0, 0});
      stats[t.packet].tx += 1;
      if constexpr (kObserved) {
        Observer::count(obs->tx);
        obs->emit(Event{slot, EventKind::kTx, v, kInvalidNode, t.packet});
      }
      const Joules cost =
          options.radio.tx_energy(options.packet_bits, topo.tx_range(v));
      stats[t.packet].tx_energy += cost;
      if (options.record_node_energy) out.node_energy[v] += cost;
      if (options.battery != nullptr) options.battery->drain(v, cost);
    }

    touched.clear();
    for (const Pending& t : transmitters) {
      const NodeId v = t.node;
      for (NodeId u : topo.neighbors(v)) {
        if (options.battery != nullptr && !options.battery->alive(u)) {
          continue;
        }
        if (faults != nullptr) {
          if (!faults->node_up(u, slot)) {
            stats[t.packet].lost_to_crash += 1;
            if constexpr (kObserved) {
              Observer::count(obs->lost_to_crash);
              obs->emit(
                  Event{slot, EventKind::kLossCrash, u, v, t.packet, 1});
            }
            continue;
          }
          // A faded packet is below the decode *and* interference
          // thresholds: it neither delivers nor contributes to collisions
          // (fault/fault_model.h).
          if (!faults->link_delivers(v, u, slot)) {
            stats[t.packet].lost_to_fading += 1;
            if constexpr (kObserved) {
              Observer::count(obs->lost_to_fading);
              obs->emit(Event{slot, EventKind::kLossFading, u, v, t.packet});
            }
            continue;
          }
        }
        if (hear_count[u] == 0) touched.push_back(u);
        hear_count[u] += 1;
        heard_from[u] = v;
      }
    }

    for (NodeId u : touched) {
      const std::uint32_t contenders = hear_count[u];
      hear_count[u] = 0;
      if (is_transmitting[u]) continue;  // half-duplex: deaf while sending

      const NodeId from = heard_from[u];
      // The packet of the (last) transmitter heard; a collision's event
      // names it, though the pileup may mix packets.
      const std::uint32_t packet = packets > 1 ? tx_packet[from] : 0;
      if (contenders == 1) {
        BroadcastStats& s = stats[packet];
        s.rx += 1;
        if constexpr (kObserved) Observer::count(obs->rx);
        const Joules cost = options.radio.rx_energy(options.packet_bits);
        s.rx_energy += cost;
        if (options.record_node_energy) out.node_energy[u] += cost;
        if (options.battery != nullptr) options.battery->drain(u, cost);

        TxRecord& rec = out.transmissions[record_of[from]];
        rec.delivered += 1;
        Slot& first_rx = out.first_rx[packet * n + u];
        if (first_rx == kNeverSlot) {
          rec.fresh += 1;
          first_rx = slot;
          const Slot delay = slot - packet * interval;
          s.delay = std::max(s.delay, delay);
          if constexpr (kObserved) {
            obs->emit(Event{slot, EventKind::kRx, u, from, packet});
            if (obs->slot_delay != nullptr) {
              obs->slot_delay->observe(static_cast<double>(delay));
            }
          }
          schedule_node(u, packet, slot);
        } else {
          s.duplicates += 1;
          if constexpr (kObserved) {
            Observer::count(obs->duplicates);
            obs->emit(Event{slot, EventKind::kDuplicate, u, from, packet});
          }
        }
      } else {
        out.stats.collisions += 1;
        if constexpr (kObserved) {
          Observer::count(obs->collisions);
          obs->emit(Event{slot, EventKind::kCollision, u, kInvalidNode,
                          packet, contenders});
        }
        if (options.charge_collisions) {
          const Joules cost = options.radio.rx_energy(options.packet_bits);
          out.stats.rx_energy += cost;
          if (options.record_node_energy) out.node_energy[u] += cost;
          if (options.battery != nullptr) options.battery->drain(u, cost);
        }
        if (options.record_collisions) {
          out.collision_events.push_back(
              CollisionRecord{slot, u, contenders});
        }
      }
    }

    for (const Pending& t : transmitters) is_transmitting[t.node] = 0;
  }
  if (!swept.empty()) spare_slots_.push_back(std::move(swept));

  for (std::size_t p = 0; p < packets; ++p) {
    for (std::size_t v = 0; v < n; ++v) {
      if (out.first_rx[p * n + v] != kNeverSlot) stats[p].reached += 1;
    }
  }
  // A pipeline's totals: sums over packets, except that the delay is the
  // slot of the last first reception of any packet and the reach is the
  // last packet's.
  for (std::size_t p = 0; p < per_packet.size(); ++p) {
    const BroadcastStats& s = per_packet[p];
    out.stats.tx += s.tx;
    out.stats.rx += s.rx;
    out.stats.duplicates += s.duplicates;
    out.stats.lost_to_fading += s.lost_to_fading;
    out.stats.lost_to_crash += s.lost_to_crash;
    out.stats.tx_energy += s.tx_energy;
    out.stats.rx_energy += s.rx_energy;
    out.stats.delay = std::max(
        out.stats.delay, s.delay + static_cast<Slot>(p) * interval);
    out.stats.reached = s.reached;
  }
  if constexpr (kObserved) observe_outcome(topo, out, *obs);
  return out;
}

std::vector<Simulator::Pending>& Simulator::slot_entries(Slot slot) {
  const auto it = schedule_.lower_bound(slot);
  if (it != schedule_.end() && it->first == slot) return it->second;
  if (spare_slots_.empty()) return schedule_.try_emplace(it, slot)->second;
  Schedule::node_type node = std::move(spare_slots_.back());
  spare_slots_.pop_back();
  node.key() = slot;
  node.mapped().clear();
  return schedule_.insert(it, std::move(node))->second;
}

BroadcastOutcome Simulator::run(const Topology& topo,
                                const FlatRelayPlan& plan,
                                const SimOptions& options) {
  WSN_SPAN("sim.simulate");
  if (options.observer != nullptr) {
    return run_impl<true>(topo, plan, options);
  }
  return run_impl<false>(topo, plan, options);
}

PipelineOutcome Simulator::run_pipeline(const Topology& topo,
                                        const FlatRelayPlan& plan,
                                        const PipelineOptions& options) {
  WSN_SPAN("sim.pipeline");
  WSN_EXPECTS(options.packets >= 1);
  WSN_EXPECTS(options.interval >= 1);
  WSN_EXPECTS(options.sim.battery == nullptr);
  // Collision records, per-node energy and collision charging describe a
  // single broadcast; a pipeline reports per-packet stats only.
  SimOptions sim = options.sim;
  sim.record_collisions = false;
  sim.record_node_energy = false;
  sim.charge_collisions = false;

  PipelineOutcome result;
  result.per_packet.assign(options.packets, BroadcastStats{});
  for (BroadcastStats& stats : result.per_packet) {
    stats.num_nodes = topo.num_nodes();
  }
  result.aggregate =
      (sim.observer != nullptr
           ? run_impl<true>(topo, plan, sim, result.per_packet,
                            options.interval)
           : run_impl<false>(topo, plan, sim, result.per_packet,
                             options.interval))
          .stats;
  return result;
}

BroadcastOutcome simulate_broadcast(const Topology& topo,
                                    const FlatRelayPlan& plan,
                                    const SimOptions& options) {
  Simulator simulator(topo.num_nodes());
  return simulator.run(topo, plan, options);
}

}  // namespace wsn
