#include "sim/bulk/bulk_simulator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>

#include "common/assert.h"
#include "obs/profile.h"

namespace wsn {

namespace {

constexpr std::size_t kWordBits = 64;

inline std::size_t word_count(std::size_t bits) noexcept {
  return (bits + kWordBits - 1) / kWordBits;
}

inline void set_bit(std::vector<std::uint64_t>& words,
                    std::size_t bit) noexcept {
  words[bit / kWordBits] |= std::uint64_t{1} << (bit % kWordBits);
}

inline void clear_bit(std::vector<std::uint64_t>& words,
                      std::size_t bit) noexcept {
  words[bit / kWordBits] &= ~(std::uint64_t{1} << (bit % kWordBits));
}

/// Sets bits [lo, hi] (inclusive), optionally only every second bit
/// starting at lo (the 2D-3 parity mask).
void set_bit_range(std::span<std::uint64_t> words, std::size_t lo,
                   std::size_t hi, bool strided) {
  if (strided) {
    // Alternating bits: 0x5555… anchored so bit `lo` is set.
    constexpr std::uint64_t kEven = 0x5555555555555555ull;
    for (std::size_t w = lo / kWordBits; w <= hi / kWordBits; ++w) {
      const std::size_t base = w * kWordBits;
      std::uint64_t pattern = ((lo - base) % 2 == 0)
                                  ? kEven
                                  : ~kEven;  // phase within this word
      // `lo - base` underflows only for w > lo's word, where the phase is
      // (base - lo) % 2 -- same expression modulo 2 in unsigned arithmetic.
      std::uint64_t range = ~std::uint64_t{0};
      if (base < lo) range &= ~std::uint64_t{0} << (lo - base);
      if (base + kWordBits - 1 > hi) {
        range &= ~std::uint64_t{0} >> (base + kWordBits - 1 - hi);
      }
      words[w] |= pattern & range;
    }
    return;
  }
  for (std::size_t w = lo / kWordBits; w <= hi / kWordBits; ++w) {
    const std::size_t base = w * kWordBits;
    std::uint64_t range = ~std::uint64_t{0};
    if (base < lo) range &= ~std::uint64_t{0} << (lo - base);
    if (base + kWordBits - 1 > hi) {
      range &= ~std::uint64_t{0} >> (base + kWordBits - 1 - hi);
    }
    words[w] |= range;
  }
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

void BulkSimulator::build_masks(const ImplicitLattice& lat) {
  const std::string key = lat.name();
  if (key == mask_key_ && masks_.size() == lat.rules().size() * words_) {
    return;
  }
  const std::size_t m = static_cast<std::size_t>(lat.m());
  masks_.assign(lat.rules().size() * words_, 0);
  for (std::size_t r = 0; r < lat.rules().size(); ++r) {
    const ShiftRule& rule = lat.rules()[r];
    const std::span<std::uint64_t> mask(masks_.data() + r * words_, words_);
    // Coordinate ranges are row-aligned: fill each valid row's [xlo, xhi]
    // span wholesale (every second bit under the 2D-3 parity constraint).
    for (int z = std::max(1, rule.zlo); z <= std::min(lat.l(), rule.zhi);
         ++z) {
      for (int y = std::max(1, rule.ylo); y <= std::min(lat.n(), rule.yhi);
           ++y) {
        int xlo = std::max(1, rule.xlo);
        const int xhi = std::min(lat.m(), rule.xhi);
        if (rule.parity >= 0) {
          // (x + y) & 1 == parity pins x's parity for this row.
          const int want = rule.parity ^ (y & 1);
          if ((xlo & 1) != want) ++xlo;
        }
        if (xlo > xhi) continue;
        const std::size_t row =
            (static_cast<std::size_t>(z - 1) *
                 static_cast<std::size_t>(lat.n()) +
             static_cast<std::size_t>(y - 1)) *
            m;
        set_bit_range(mask, row + static_cast<std::size_t>(xlo - 1),
                      row + static_cast<std::size_t>(xhi - 1),
                      rule.parity >= 0);
      }
    }
  }
  mask_key_ = key;
}

BroadcastOutcome BulkSimulator::run(const ImplicitLattice& lat,
                                    const FlatRelayPlan& plan,
                                    const SimOptions& options) {
  WSN_SPAN("sim.bulk_simulate");
  const std::size_t n = lat.num_nodes();
  WSN_EXPECTS(plan.num_nodes() == n);
  WSN_EXPECTS(options_supported(options));
  plan.validate();

  const std::size_t prev_words = words_;
  words_ = word_count(n);
  if (words_ != prev_words) mask_key_.clear();
  build_masks(lat);

  const NodeId source = plan.source();
  BroadcastOutcome out;
  out.stats.num_nodes = n;
  out.first_rx.assign(n, kNeverSlot);
  out.first_rx[source] = 0;
  if (options.record_node_energy) out.node_energy.assign(n, 0.0);

  transmitting_.assign(words_, 0);
  ones_.assign(words_, 0);
  twos_.assign(words_, 0);
  received_.assign(words_, 0);

  const std::vector<ShiftRule>& rules = lat.rules();
  const std::size_t num_rules = rules.size();
  const Joules rx_cost = options.radio.rx_energy(options.packet_bits);

  std::map<Slot, std::vector<NodeId>>& schedule = schedule_;
  schedule.clear();
  const auto schedule_node = [&](NodeId v, Slot received_at) {
    for (const Slot offset : plan.offsets(v)) {
      schedule[received_at + offset].push_back(v);
    }
  };
  schedule_node(source, 0);
  set_bit(received_, source);

  std::vector<std::uint32_t>& touched = touched_words_;
  std::vector<std::uint32_t> tx_words;
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
      p.reached += static_cast<std::size_t>(std::popcount(w));
    }
    p.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - run_start)
                      .count();
    progress_(p);
  };
  Slot last_slot = 0;
  std::size_t last_frontier = 0;

  while (!schedule.empty()) {
    auto it = schedule.begin();
    const Slot slot = it->first;
    std::vector<NodeId> transmitters = std::move(it->second);
    schedule.erase(it);
    if (slot > options.max_slots) break;
    std::sort(transmitters.begin(), transmitters.end());
    if (transmitters.empty()) continue;

    // --- transmit pass: records, energy, the T frontier -----------------
    //
    // Id-ascending, exactly the reference order, so the tx_energy running
    // sum sees the same addends in the same sequence bit for bit.
    tx_words.clear();
    const std::size_t first_record = out.transmissions.size();
    for (const NodeId v : transmitters) {
      set_bit(transmitting_, v);
      const std::uint32_t w = static_cast<std::uint32_t>(v / kWordBits);
      if (tx_words.empty() || tx_words.back() != w) tx_words.push_back(w);
      out.transmissions.push_back(TxRecord{slot, v, 0, 0});
      out.stats.tx += 1;
      const Joules cost =
          options.radio.tx_energy(options.packet_bits, lat.tx_range(v));
      out.stats.tx_energy += cost;
      if (options.record_node_energy) out.node_energy[v] += cost;
    }

    // --- hearer pass: Σ_rules shift(T & mask, delta) into ones/twos -----
    touched.clear();
    for (std::size_t r = 0; r < num_rules; ++r) {
      const std::uint64_t* mask = masks_.data() + r * words_;
      const std::int64_t delta = rules[r].delta;
      for (const std::uint32_t wi : tx_words) {
        const std::uint64_t bits = transmitting_[wi] & mask[wi];
        if (bits == 0) continue;
        // Target bit of this word's bit 0 is wi·64 + delta; floor-divide
        // into a word index and an in-word shift in [0, 64).
        const std::int64_t base =
            static_cast<std::int64_t>(wi) * static_cast<std::int64_t>(
                                                kWordBits) +
            delta;
        const std::int64_t q =
            base >= 0 ? base / static_cast<std::int64_t>(kWordBits)
                      : -((-base + static_cast<std::int64_t>(kWordBits) - 1) /
                          static_cast<std::int64_t>(kWordBits));
        const std::uint64_t s = static_cast<std::uint64_t>(
            base - q * static_cast<std::int64_t>(kWordBits));
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
    for (std::size_t k = 0; k < transmitters.size(); ++k) {
      const NodeId v = transmitters[k];
      TxRecord& rec = out.transmissions[first_record + k];
      for (std::size_t r = 0; r < num_rules; ++r) {
        if (((masks_[r * words_ + v / kWordBits] >> (v % kWordBits)) & 1u) ==
            0) {
          continue;
        }
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
    // integers, every rx_energy addend is the same constant, and the
    // schedule pushes are sorted when their slot is popped.  Clearing
    // each touched word leaves ones/twos all zero for the next slot.
    std::size_t decoded = 0;
    for (const std::uint32_t w : touched) {
      const std::uint64_t t = transmitting_[w];
      const std::uint64_t collided = twos_[w] & ~t;
      const std::uint64_t rx = ones_[w] & ~twos_[w] & ~t;
      const std::uint64_t fresh = rx & ~received_[w];
      const std::uint64_t dup = rx & received_[w];
      out.stats.collisions +=
          static_cast<std::size_t>(std::popcount(collided));
      out.stats.duplicates += static_cast<std::size_t>(std::popcount(dup));
      const int rx_count = std::popcount(rx);
      decoded += static_cast<std::size_t>(rx_count);
      out.stats.rx += static_cast<std::size_t>(rx_count);
      // One add per decode, like the reference -- the addends are all the
      // same constant, so matching the count matches the bits.
      for (int i = 0; i < rx_count; ++i) out.stats.rx_energy += rx_cost;
      if (options.charge_collisions) {
        const int coll_count = std::popcount(collided);
        for (int i = 0; i < coll_count; ++i) {
          out.stats.rx_energy += rx_cost;
        }
      }

      const auto node_at = [w](std::uint64_t set) {
        return static_cast<NodeId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(set)));
      };
      for (std::uint64_t set = fresh; set != 0; set &= set - 1) {
        const NodeId u = node_at(set);
        out.first_rx[u] = slot;
        out.stats.delay = std::max(out.stats.delay, slot);
        schedule_node(u, slot);
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
    for (const NodeId v : transmitters) clear_bit(transmitting_, v);

    ++slots_done;
    last_slot = slot;
    last_frontier = transmitters.size();
    if (progress_ && progress_every_ != 0 &&
        slots_done % progress_every_ == 0) {
      report_progress(slot, transmitters.size());
    }
  }
  if (progress_ && slots_done != 0 &&
      (progress_every_ == 0 || slots_done % progress_every_ != 0)) {
    report_progress(last_slot, last_frontier);
  }

  std::size_t reached = 0;
  for (const std::uint64_t w : received_) {
    reached += static_cast<std::size_t>(std::popcount(w));
  }
  out.stats.reached = reached;
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
