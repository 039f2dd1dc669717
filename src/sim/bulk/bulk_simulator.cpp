#include "sim/bulk/bulk_simulator.h"

#include <array>
#include <bit>
#include <bitset>
#include <chrono>
#include <span>

#include "common/assert.h"
#include "obs/profile.h"

namespace wsn {

namespace {

constexpr std::size_t kWordBits = 64;
/// A transmitter's valid rules as one bit per rule; the wrapped 2D-8
/// torus has the most rules, 24.
constexpr std::size_t kMaxRules = 32;
/// Rule sets are costed by table up to this many rules, which covers
/// every mesh; a torus bills its one uniform range through tx_range.
constexpr std::size_t kCostedRules = 8;

inline std::size_t word_count(std::size_t bits) noexcept {
  return (bits + kWordBits - 1) / kWordBits;
}

/// std::popcount, kept inline: where the target has no popcount
/// instruction (baseline x86-64) the library form is a libgcc call, paid
/// per touched word of every slot.
inline int bit_count(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

}  // namespace

BulkSimulator::BulkSimulator(std::size_t num_nodes) {
  const std::size_t words = word_count(num_nodes);
  transmitting_.reserve(words);
  ones_.reserve(words);
  twos_.reserve(words);
  received_.reserve(words);
}

bool BulkSimulator::options_supported(const SimOptions& options,
                                      std::string* why) {
  const auto reject = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (options.faults != nullptr) {
    return reject("fault injection needs the reference engine's per-link "
                  "medium state");
  }
  if (options.battery != nullptr) {
    return reject("battery banks need the reference engine's per-node "
                  "liveness checks");
  }
  if (options.observer != nullptr) {
    return reject("per-event observation defeats the batched slot kernel; "
                  "use the reference engine for tracing");
  }
  if (options.record_collisions) {
    return reject("collision event records are ordered by the reference "
                  "engine's discovery walk; use the reference engine");
  }
  return true;
}

BroadcastOutcome BulkSimulator::run(const ImplicitLattice& lat,
                                    const FlatRelayPlan& plan,
                                    const SimOptions& options) {
  WSN_SPAN("sim.bulk_simulate");
  const std::size_t n = lat.num_nodes();
  WSN_EXPECTS(plan.num_nodes() == n);
  WSN_EXPECTS(options_supported(options));
  plan.validate();

  words_ = word_count(n);
  const std::uint64_t* const masks = lat.rule_masks().data();

  const NodeId source = plan.source();
  BroadcastOutcome out;
  out.stats.num_nodes = n;
  out.first_rx.assign(n, kNeverSlot);
  out.first_rx[source] = 0;
  if (options.record_node_energy) out.node_energy.assign(n, 0.0);

  transmitting_.assign(words_, 0);
  tx_summary_.assign(word_count(words_), 0);
  ones_.assign(words_, 0);
  twos_.assign(words_, 0);
  received_.assign(words_, 0);

  const std::vector<ShiftRule>& rules = lat.rules();
  const std::size_t num_rules = rules.size();
  const Joules rx_cost = options.radio.rx_energy(options.packet_bits);
  const std::span<const std::uint64_t> plain_relays = plan.plain_relays();
  const std::span<const std::uint64_t> other_relays = plan.other_relays();

  // Where a node's range follows from its rule set, so does its tx cost:
  // each rule set's cost is computed at its first transmitter and read
  // back for the rest.  The same double as a per-node call, so the
  // running sums stay bit-identical.
  WSN_ASSERT(num_rules <= kMaxRules);
  const bool cost_by_rules =
      lat.range_by_rule_set() && num_rules <= kCostedRules;
  std::array<Joules, std::size_t{1} << kCostedRules> rule_set_cost{};
  std::bitset<std::size_t{1} << kCostedRules> rule_set_costed;
  const auto tx_cost = [&](NodeId v, std::uint32_t rule_set) {
    if (!cost_by_rules) {
      return options.radio.tx_energy(options.packet_bits, lat.tx_range(v));
    }
    if (!rule_set_costed[rule_set]) {
      rule_set_cost[rule_set] =
          options.radio.tx_energy(options.packet_bits, lat.tx_range(v));
      rule_set_costed[rule_set] = true;
    }
    return rule_set_cost[rule_set];
  };

  // Relays other than plain ones wait in a calendar keyed by slot; plain
  // relays skip it (see `forwards`).
  std::map<Slot, std::vector<NodeId>>& schedule = schedule_;
  schedule.clear();
  const auto schedule_node = [&](NodeId v, Slot received_at) {
    for (const Slot offset : plan.offsets(v)) {
      schedule[received_at + offset].push_back(v);
    }
  };
  schedule_node(source, 0);
  received_[source / kWordBits] |= std::uint64_t{1} << (source % kWordBits);

  std::vector<std::uint32_t>& touched = touched_words_;
  std::vector<std::uint32_t>& tx_words = tx_words_;
  std::vector<Forward>& forwards = forwards_;
  forwards.clear();
  // Adds one rule's shifted transmitter bits to word w's hearer counter.
  // ones|twos only gains bits within a slot, so a word is listed in
  // `touched` exactly once: when it first leaves zero.
  const auto hear = [&](std::size_t w, std::uint64_t part) {
    if ((ones_[w] | twos_[w]) == 0) {
      touched.push_back(static_cast<std::uint32_t>(w));
    }
    twos_[w] |= ones_[w] & part;
    ones_[w] ^= part;
  };
  const auto load_word = [&](std::size_t w, std::uint64_t bits) {
    transmitting_[w] |= bits;
    tx_summary_[w / kWordBits] |= std::uint64_t{1} << (w % kWordBits);
  };
  // Every record this run can write, once, instead of growth by doubling.
  out.transmissions.reserve(plan.total_offsets());

  // Progress is pure observation: it reads R and the wall clock, never
  // the kernel state, so instrumented runs stay bit-identical.
  const auto run_start = std::chrono::steady_clock::now();
  std::uint64_t slots_done = 0;
  const auto report_progress = [&](Slot slot, std::size_t frontier) {
    BulkProgress p;
    p.slot = slot;
    p.slots_done = slots_done;
    p.frontier = frontier;
    p.total_nodes = n;
    for (const std::uint64_t w : received_) {
      p.reached += static_cast<std::size_t>(bit_count(w));
    }
    p.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - run_start)
                      .count();
    progress_(p);
  };
  Slot slot = 0;
  std::size_t last_frontier = 0;

  for (;;) {
    // --- load: the slot's T words, listed in ascending order ------------
    //
    // Forwards transmit in the slot after the one that filed them, and
    // every calendar entry lies past the current slot, so the next slot
    // is the one after this when forwards are pending.  Each node is
    // filed at most once per slot (it is scheduled at its first reception
    // only, with strictly increasing offsets), so T is exact.
    Slot next = 0;
    if (!forwards.empty()) {
      next = slot + 1;
    } else if (!schedule.empty()) {
      next = schedule.begin()->first;
    } else {
      break;
    }
    if (next > options.max_slots) break;
    slot = next;
    for (const Forward& f : forwards) load_word(f.word, f.bits);
    forwards.clear();
    if (!schedule.empty() && schedule.begin()->first == slot) {
      for (const NodeId v : schedule.begin()->second) {
        load_word(v / kWordBits, std::uint64_t{1} << (v % kWordBits));
      }
      schedule.erase(schedule.begin());
    }
    tx_words.clear();
    for (std::size_t sw = 0; sw < tx_summary_.size(); ++sw) {
      for (std::uint64_t set = tx_summary_[sw]; set != 0; set &= set - 1) {
        tx_words.push_back(static_cast<std::uint32_t>(
            sw * kWordBits + static_cast<std::size_t>(std::countr_zero(set))));
      }
      tx_summary_[sw] = 0;
    }

    // --- transmit pass: records and energy, id-ascending ----------------
    //
    // Exactly the reference order, so the tx_energy running sum sees the
    // same addends in the same sequence bit for bit.  A transmitter's
    // rule set is bit b of each rule's mask word; the attribution pass
    // reads it back.
    const std::size_t first_record = out.transmissions.size();
    std::vector<std::uint32_t>& rule_sets = rule_sets_;
    rule_sets.clear();
    std::array<std::uint64_t, kMaxRules> rule_words{};
    for (const std::uint32_t w : tx_words) {
      for (std::size_t r = 0; r < num_rules; ++r) {
        rule_words[r] = masks[r * words_ + w];
      }
      for (std::uint64_t set = transmitting_[w]; set != 0; set &= set - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(set));
        const auto v = static_cast<NodeId>(w * kWordBits + b);
        std::uint32_t rule_set = 0;
        for (std::size_t r = 0; r < num_rules; ++r) {
          rule_set |= static_cast<std::uint32_t>((rule_words[r] >> b) & 1u)
                      << r;
        }
        rule_sets.push_back(rule_set);
        out.transmissions.push_back(TxRecord{slot, v, 0, 0});
        const Joules cost = tx_cost(v, rule_set);
        out.stats.tx_energy += cost;
        if (options.record_node_energy) out.node_energy[v] += cost;
      }
    }
    const std::size_t frontier = out.transmissions.size() - first_record;
    out.stats.tx += frontier;

    // --- hearer pass: Σ_rules shift(T & mask, delta) into ones/twos -----
    touched.clear();
    for (std::size_t r = 0; r < num_rules; ++r) {
      const std::uint64_t* mask = masks + r * words_;
      // Bit b of word wi lands at bit wi·64 + b + delta: `delta` split
      // into a floor word step and an in-word shift in [0, 64) (C++20
      // shifts and masks of negative values are two's complement).
      const std::int64_t word_step = rules[r].delta >> 6;
      const auto s = static_cast<std::uint64_t>(rules[r].delta & 63);
      for (const std::uint32_t wi : tx_words) {
        const std::uint64_t bits = transmitting_[wi] & mask[wi];
        if (bits == 0) continue;
        const std::int64_t q = static_cast<std::int64_t>(wi) + word_step;
        const std::uint64_t lo_part = s == 0 ? bits : bits << s;
        const std::uint64_t hi_part = s == 0 ? 0 : bits >> (kWordBits - s);
        // All masked sources have in-range targets, so any part that falls
        // off the array is necessarily zero and safe to drop.
        if (q >= 0 && static_cast<std::size_t>(q) < words_ && lo_part != 0) {
          hear(static_cast<std::size_t>(q), lo_part);
        }
        if (q + 1 >= 0 && static_cast<std::size_t>(q + 1) < words_ &&
            hi_part != 0) {
          hear(static_cast<std::size_t>(q + 1), hi_part);
        }
      }
    }

    // --- attribution pass: each transmitter's decodes ------------------
    //
    // A decoded hearer has exactly one transmitting neighbor, so walking
    // every transmitter's valid rules and testing the target's
    // exactly-one-hearer bit finds each decode once, at its sender's
    // record.  It reads the counters before the classification pass
    // clears them.
    std::size_t attributed = 0;
    for (std::size_t k = 0; k < frontier; ++k) {
      TxRecord& rec = out.transmissions[first_record + k];
      const NodeId v = rec.node;
      for (std::uint32_t valid = rule_sets[k]; valid != 0;
           valid &= valid - 1) {
        const auto r = static_cast<std::size_t>(std::countr_zero(valid));
        const auto u = static_cast<std::size_t>(
            static_cast<std::int64_t>(v) + rules[r].delta);
        const std::size_t w = u / kWordBits;
        const std::uint64_t bit = std::uint64_t{1} << (u % kWordBits);
        if ((ones_[w] & ~twos_[w] & ~transmitting_[w] & bit) == 0) continue;
        rec.delivered += 1;
        if ((received_[w] & bit) == 0) rec.fresh += 1;
      }
      attributed += rec.delivered;
    }

    // --- classification pass: word-parallel counting, then the (sparse)
    // per-receiver walk over fresh and charged bits ---------------------
    //
    // `touched` is in first-heard order, not id order, and nothing here
    // needs id order: the fields written are per node, the counters are
    // integers, every rx_energy addend is the same constant, and the next
    // slot's T words are listed in id order when it loads.  Fresh plain
    // relays are filed as one forward per word; only the other fresh
    // relays read their offsets.  Clearing each touched word leaves
    // ones/twos all zero for the next slot.
    std::size_t decoded = 0;
    for (const std::uint32_t w : touched) {
      const std::uint64_t t = transmitting_[w];
      const std::uint64_t collided = twos_[w] & ~t;
      const std::uint64_t rx = ones_[w] & ~twos_[w] & ~t;
      const std::uint64_t fresh = rx & ~received_[w];
      out.stats.collisions +=
          static_cast<std::size_t>(bit_count(collided));
      const int rx_count = bit_count(rx);
      decoded += static_cast<std::size_t>(rx_count);
      out.stats.rx += static_cast<std::size_t>(rx_count);
      // One add per decode, like the reference -- the addends are all the
      // same constant, so matching the count matches the bits.
      for (int i = 0; i < rx_count; ++i) out.stats.rx_energy += rx_cost;
      if (options.charge_collisions) {
        const int coll_count = bit_count(collided);
        for (int i = 0; i < coll_count; ++i) {
          out.stats.rx_energy += rx_cost;
        }
      }

      const auto node_at = [w](std::uint64_t set) {
        return static_cast<NodeId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(set)));
      };
      if (fresh != 0) {
        for (std::uint64_t set = fresh; set != 0; set &= set - 1) {
          out.first_rx[node_at(set)] = slot;
        }
        out.stats.delay = slot;  // slots only ascend
        const std::uint64_t plain = fresh & plain_relays[w];
        if (plain != 0) forwards.push_back(Forward{w, plain});
        for (std::uint64_t set = fresh & other_relays[w]; set != 0;
             set &= set - 1) {
          schedule_node(node_at(set), slot);
        }
      }
      if (options.record_node_energy) {
        // A node decodes or collides at most once per slot, so the order
        // of these adds within the slot cannot change any node's sum.
        const std::uint64_t charged =
            options.charge_collisions ? rx | collided : rx;
        for (std::uint64_t set = charged; set != 0; set &= set - 1) {
          out.node_energy[node_at(set)] += rx_cost;
        }
      }
      received_[w] |= fresh;
      ones_[w] = 0;
      twos_[w] = 0;
    }
    WSN_ASSERT(attributed == decoded);
    for (const std::uint32_t w : tx_words) transmitting_[w] = 0;

    ++slots_done;
    last_frontier = frontier;
    if (progress_ && progress_every_ != 0 &&
        slots_done % progress_every_ == 0) {
      report_progress(slot, frontier);
    }
  }
  if (progress_ && slots_done != 0 &&
      (progress_every_ == 0 || slots_done % progress_every_ != 0)) {
    report_progress(slot, last_frontier);
  }

  std::size_t reached = 0;
  for (const std::uint64_t w : received_) {
    reached += static_cast<std::size_t>(bit_count(w));
  }
  out.stats.reached = reached;
  // Every decode is fresh or a duplicate, and every node but the source
  // was reached by exactly one fresh decode.
  out.stats.duplicates = out.stats.rx - (reached - 1);
  return out;
}

void BulkSimulator::set_progress(BulkProgressFn fn,
                                 std::uint64_t every_slots) {
  progress_ = std::move(fn);
  progress_every_ = every_slots;
}

BroadcastOutcome bulk_simulate(const ImplicitLattice& lat,
                               const FlatRelayPlan& plan,
                               const SimOptions& options) {
  BulkSimulator sim(lat.num_nodes());
  return sim.run(lat, plan, options);
}

}  // namespace wsn
