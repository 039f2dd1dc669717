#include "sim/bulk/bulk_simulator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <bitset>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/assert.h"
#include "common/parallel.h"
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

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The CPU the calling thread runs on, or -1 where that is unknown.
int current_cpu() noexcept {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Moves the calling thread to the `k`-th CPU it may run on after CPU
/// `from`, then lets it run on all of them again.  A new thread starts on
/// its creator's CPU, and some hosts' schedulers leave the creator and
/// its helpers sharing that CPU for up to a second while the others
/// idle, which makes a banded slot slower than a serial one; a helper
/// that starts on a CPU of its own stays there.
void start_apart([[maybe_unused]] int from, [[maybe_unused]] std::size_t k) {
#ifdef __linux__
  cpu_set_t allowed;
  if (from < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const auto origin = static_cast<std::size_t>(from);
  for (std::size_t c = (origin + 1) % CPU_SETSIZE; c != origin;
       c = (c + 1) % CPU_SETSIZE) {
    if (!CPU_ISSET(c, &allowed) || --k != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      (void)sched_setaffinity(0, sizeof allowed, &allowed);
    }
    return;
  }
#endif
}

/// The process-wide pool that runs a slot's bands.  One run holds it at a
/// time (try_acquire).  A pass is published as one atomic job word -- a
/// generation and the band count -- and its bands are claimed one by one
/// from a counter tagged with the same generation, by the caller and by
/// every helper that sees the job in time, so a helper that is asleep or
/// late delays nothing: the others take its band.  Which thread
/// runs a band never changes what the band writes.  Helpers spin for a
/// while after each pass, since inside a run the next one follows within
/// microseconds, then sleep on a condition variable until the next job.
class BandPool {
 public:
  using Body = void (*)(const void* ctx, std::size_t band);

  static BandPool& instance() {
    static BandPool pool;
    return pool;
  }

  BandPool(const BandPool&) = delete;
  BandPool& operator=(const BandPool&) = delete;

  ~BandPool() {
    if (threads_.empty()) return;
    generation_ += 1;
    publish(0);  // band count 0: stop
    for (std::thread& t : threads_) t.join();
  }

  /// Threads a run can use: the helpers plus the caller.
  [[nodiscard]] std::size_t width() const noexcept { return helpers_ + 1; }

  [[nodiscard]] bool try_acquire() noexcept {
    return !busy_.exchange(true, std::memory_order_acquire);
  }
  void release() noexcept { busy_.store(false, std::memory_order_release); }

  /// Runs body(ctx, b) for every band b in [0, bands) and returns when
  /// all have finished.  Only the holder calls it.
  void run(std::size_t bands, Body body, const void* ctx) {
    WSN_ASSERT(bands >= 2 && bands <= width());
    if (threads_.empty()) {
      threads_.reserve(helpers_);
      const int here = current_cpu();
      for (std::size_t i = 0; i < helpers_; ++i) {
        threads_.emplace_back([this, here, i] {
          start_apart(here, i + 1);
          helper_loop();
        });
      }
    }
    body_ = body;
    ctx_ = ctx;
    done_.store(0, std::memory_order_relaxed);
    generation_ += 1;
    claim_.store(generation_ << 8, std::memory_order_relaxed);
    publish(bands);
    work(generation_, bands);
    for (std::size_t spins = 1;
         done_.load(std::memory_order_acquire) != bands; ++spins) {
      cpu_relax();
      if (spins % 1024 == 0) std::this_thread::yield();
    }
    if (failure_ != nullptr) {
      std::rethrow_exception(std::exchange(failure_, nullptr));
    }
  }

 private:
  /// How long a helper spins for the next pass before it sleeps.
  static constexpr std::chrono::microseconds kSpin{200};

  BandPool()
      : helpers_(std::min<std::size_t>(default_worker_count(), 64) - 1) {}

  /// Stores the job, then wakes the sleepers, if any.  A helper counts
  /// itself a sleeper before it tests the job word under the mutex and
  /// stops counting only once awake, and both sides are sequentially
  /// consistent, so either this load sees the sleeper (and the notify,
  /// taken under the mutex, finds it waiting or about to see the new job)
  /// or the helper's test sees the new job.
  void publish(std::size_t bands) {
    job_.store(generation_ << 8 | bands, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      wake_.notify_all();
    }
  }

  /// Claims and runs bands of job `generation` until none is left.  A
  /// claim succeeds only while the counter carries this generation, and
  /// the holder starts no new job before every band of this one is done,
  /// so the body read after a claim is this job's.  A band that throws
  /// still counts as done; the holder rethrows its exception once every
  /// band has finished with the caller's frame.
  void work(std::uint64_t generation, std::size_t bands) {
    std::uint64_t claim = claim_.load(std::memory_order_relaxed);
    for (;;) {
      if (claim >> 8 != generation || (claim & 0xff) >= bands) return;
      if (!claim_.compare_exchange_weak(claim, claim + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        continue;
      }
      try {
        body_(ctx_, claim & 0xff);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (failure_ == nullptr) failure_ = std::current_exception();
      }
      done_.fetch_add(1, std::memory_order_release);
      claim = claim_.load(std::memory_order_relaxed);
    }
  }

  /// The first job word whose generation is not `seen`.
  std::uint64_t await(std::uint64_t seen) {
    const auto spin_end = std::chrono::steady_clock::now() + kSpin;
    for (std::size_t spins = 1;; ++spins) {
      const std::uint64_t job = job_.load(std::memory_order_acquire);
      if (job >> 8 != seen) return job;
      cpu_relax();
      if (spins % 256 == 0 && std::chrono::steady_clock::now() > spin_end) {
        break;
      }
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::uint64_t job = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        job = job_.load(std::memory_order_seq_cst);
        return job >> 8 != seen;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return job;
  }

  void helper_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::uint64_t job = await(seen);
      seen = job >> 8;
      const std::size_t bands = job & 0xff;
      if (bands == 0) return;
      work(seen, bands);
    }
  }

  const std::size_t helpers_;
  std::atomic<bool> busy_{false};
  // The job: written by the holder before it publishes, read by the
  // threads that claim one of its bands.
  Body body_ = nullptr;
  const void* ctx_ = nullptr;
  std::uint64_t generation_ = 0;  // the holder's, mirrored in job_
  alignas(64) std::atomic<std::uint64_t> job_{0};
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::size_t> done_{0};
  alignas(64) std::atomic<std::size_t> sleepers_{0};
  std::mutex mutex_;  // guards failure_, and the sleepers' wait
  std::condition_variable wake_;
  std::exception_ptr failure_;  // the first exception a band threw
  std::vector<std::thread> threads_;
};

/// Holds the pool for one run, when it is free and the run is wider than
/// one band.
class PoolLease {
 public:
  explicit PoolLease(std::size_t workers) {
    BandPool& pool = BandPool::instance();
    const std::size_t wanted = workers == 0 ? pool.width() : workers;
    if (std::min(wanted, pool.width()) > 1 && pool.try_acquire()) {
      pool_ = &pool;
      width_ = std::min(wanted, pool.width());
    }
  }
  ~PoolLease() {
    if (pool_ != nullptr) pool_->release();
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  /// Bands this run may split a slot into.
  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  /// Runs body(b) for every band b in [0, bands).
  template <typename Body>
  void run(std::size_t bands, const Body& body) {
    if (bands == 1) {
      body(std::size_t{0});
      return;
    }
    pool_->run(
        bands,
        [](const void* ctx, std::size_t band) {
          (*static_cast<const Body*>(ctx))(band);
        },
        &body);
  }

 private:
  BandPool* pool_ = nullptr;
  std::size_t width_ = 1;
};

/// The rules valid at `v`, one bit per rule: v's bit of each rule mask.
std::uint32_t rule_set_of(const std::uint64_t* masks, std::size_t words,
                          std::size_t num_rules, NodeId v) noexcept {
  const std::size_t w = v / kWordBits;
  const unsigned bit = v % kWordBits;
  std::uint32_t rule_set = 0;
  for (std::size_t r = 0; r < num_rules; ++r) {
    rule_set |= static_cast<std::uint32_t>((masks[r * words + w] >> bit) & 1u)
                << r;
  }
  return rule_set;
}

/// A transmitter's tx energy.  Where a node's range follows from its rule
/// set, so does its cost: each rule set's cost is computed at its first
/// transmitter and read back for the rest -- the same double as a
/// per-node call, so running sums stay bit-identical.
class TxCosts {
 public:
  TxCosts(const ImplicitLattice& lat, const SimOptions& options)
      : lat_(lat),
        options_(options),
        by_rules_(lat.range_by_rule_set() &&
                  lat.rules().size() <= kCostedRules) {
    WSN_ASSERT(lat.rules().size() <= kMaxRules);
  }

  /// True when the cost is read by rule set rather than per node.
  [[nodiscard]] bool by_rules() const noexcept { return by_rules_; }

  Joules operator()(NodeId v, std::uint32_t rule_set) {
    if (!by_rules_) return at(v);
    if (!costed_[rule_set]) {
      cost_[rule_set] = at(v);
      costed_[rule_set] = true;
    }
    return cost_[rule_set];
  }

 private:
  [[nodiscard]] Joules at(NodeId v) const {
    return options_.radio.tx_energy(options_.packet_bits, lat_.tx_range(v));
  }

  const ImplicitLattice& lat_;
  const SimOptions& options_;
  const bool by_rules_;
  std::array<Joules, std::size_t{1} << kCostedRules> cost_{};
  std::bitset<std::size_t{1} << kCostedRules> costed_;
};

/// The edited plan in full: `base` with every overlay node's `after`
/// list, for a re-probe that falls back to a run.
FlatRelayPlan with_after_lists(const FlatRelayPlan& base,
                               std::span<const OffsetEdit> overlay) {
  const std::size_t n = base.num_nodes();
  std::vector<std::uint32_t> starts(n + 1, 0);
  std::vector<Slot> offsets;
  offsets.reserve(base.total_offsets() + overlay.size());
  std::size_t k = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const Slot> list =
        k < overlay.size() && overlay[k].node == v ? overlay[k++].after
                                                   : base.offsets(v);
    offsets.insert(offsets.end(), list.begin(), list.end());
    starts[v + 1] = static_cast<std::uint32_t>(offsets.size());
  }
  return FlatRelayPlan::adopt(base.source(), std::move(starts),
                              std::move(offsets));
}

}  // namespace

BulkSimulator::BulkSimulator(std::size_t num_nodes, std::size_t workers)
    : workers_(workers) {
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

  TxCosts tx_cost(lat, options);

  // Relays other than plain ones wait in a calendar keyed by slot; plain
  // relays skip it: the band that finds them fresh loads them into T.
  std::map<Slot, std::vector<NodeId>>& schedule = schedule_;
  schedule.clear();
  const auto schedule_node = [&](NodeId v, Slot received_at) {
    for (const Slot offset : plan.offsets(v)) {
      schedule[received_at + offset].push_back(v);
    }
  };
  schedule_node(source, 0);
  received_[source / kWordBits] |= std::uint64_t{1} << (source % kWordBits);

  PoolLease lease(workers_);
  std::vector<Band>& bands = bands_;
  bands.resize(std::max(bands.size(), lease.width()));
  bool forwards_pending = false;
  std::vector<std::uint32_t>& tx_words = tx_words_;
  // Decodes plus charged collisions: rx_energy is rx_cost added that many
  // times, formed once the run ends.
  std::size_t rx_charges = 0;

  // Every record this run can write, once, instead of growth by doubling.
  out.transmissions.reserve(plan.total_offsets());
  Slot slot = 0;

  // --- hearer pass: Σ_rules shift(T & mask, delta) into ones/twos -------
  //
  // A band first lists its own transmitters for the transmit pass.  It
  // adds only the parts that land in its target words [lo, hi),
  // from the T words whose shifted bits can reach them (a binary search
  // per rule), so it is the only writer of those words.  A word is listed
  // in the band's `touched` when its ones|twos first leaves zero: within
  // a slot a bit only moves from ones to twos, so each word once.
  const auto hear_band = [&](std::size_t b) {
    Band& band = bands[b];
    // The band's transmitters in id order, each with its valid rules:
    // the transmitter's bit of each rule's mask word.
    band.senders.clear();
    band.rule_sets.clear();
    std::array<std::uint64_t, kMaxRules> rule_words{};
    for (std::size_t i = band.tx_lo; i < band.tx_hi; ++i) {
      const std::uint32_t w = tx_words[i];
      for (std::size_t r = 0; r < num_rules; ++r) {
        rule_words[r] = masks[r * words_ + w];
      }
      for (std::uint64_t set = transmitting_[w]; set != 0; set &= set - 1) {
        const auto bit = static_cast<unsigned>(std::countr_zero(set));
        std::uint32_t rule_set = 0;
        for (std::size_t r = 0; r < num_rules; ++r) {
          rule_set |= static_cast<std::uint32_t>((rule_words[r] >> bit) & 1u)
                      << r;
        }
        band.senders.push_back(static_cast<NodeId>(w * kWordBits + bit));
        band.rule_sets.push_back(rule_set);
      }
    }

    band.touched.clear();
    const auto lo = static_cast<std::int64_t>(band.lo);
    const auto hi = static_cast<std::int64_t>(band.hi);
    const auto add = [&](std::int64_t target, std::uint64_t part) {
      if (part == 0 || target < lo || target >= hi) return;
      const auto w = static_cast<std::size_t>(target);
      if ((ones_[w] | twos_[w]) == 0) {
        band.touched.push_back(static_cast<std::uint32_t>(w));
      }
      twos_[w] |= ones_[w] & part;
      ones_[w] ^= part;
    };
    for (std::size_t r = 0; r < num_rules; ++r) {
      const std::uint64_t* mask = masks + r * words_;
      // Bit b of word wi lands at bit wi·64 + b + delta: `delta` split
      // into a floor word step and an in-word shift in [0, 64) (C++20
      // shifts and masks of negative values are two's complement).  Word
      // wi's parts land in words wi + word_step and wi + word_step + 1.
      const std::int64_t word_step = rules[r].delta >> 6;
      const auto s = static_cast<std::uint64_t>(rules[r].delta & 63);
      const std::int64_t first_source = lo - 1 - word_step;
      auto it = tx_words.begin();
      if (first_source > 0) {
        it = std::lower_bound(tx_words.begin(), tx_words.end(),
                              static_cast<std::uint32_t>(first_source));
      }
      for (; it != tx_words.end(); ++it) {
        const std::uint32_t wi = *it;
        const std::int64_t q = static_cast<std::int64_t>(wi) + word_step;
        if (q >= hi) break;
        const std::uint64_t bits = transmitting_[wi] & mask[wi];
        if (bits == 0) continue;
        const std::uint64_t lo_part = s == 0 ? bits : bits << s;
        const std::uint64_t hi_part = s == 0 ? 0 : bits >> (kWordBits - s);
        // All masked sources have in-range targets, so any part that falls
        // off the array is necessarily zero and safe to drop.
        add(q, lo_part);
        add(q + 1, hi_part);
      }
    }
  };

  // --- attribution pass: each transmitter's decodes --------------------
  //
  // A decoded hearer has exactly one transmitting neighbor, so walking
  // every transmitter's valid rules and testing the target's
  // exactly-one-hearer bit finds each decode once, at its sender's
  // record.  A band credits its own T words' records, reading counters
  // on either side of its edges; it runs after every band's hearer pass
  // and before any band's classification clears them.
  const auto attribute_band = [&](std::size_t b) {
    Band& band = bands[b];
    std::size_t attributed = 0;
    for (std::size_t k = 0; k < band.senders.size(); ++k) {
      TxRecord& rec = out.transmissions[band.first_record + k];
      const NodeId v = rec.node;
      for (std::uint32_t valid = band.rule_sets[k]; valid != 0;
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
    band.attributed = attributed;
  };

  // --- classification pass: word-parallel counting, then the (sparse)
  // per-receiver walk over fresh and charged bits -----------------------
  //
  // Over the band's touched words, in first-heard order: nothing here
  // needs id order, since the fields written are per node, the counters
  // are integers, and the next slot's T words are listed in id order when
  // it loads.  Each word's fresh plain relays replace its T bits as the
  // next slot's transmitters, and its summary bit is set (atomically
  // where the summary word spans a band edge); a T word nobody heard in
  // is cleared first.  The other fresh relays go to the calendar when
  // the bands merge.  Clearing each touched word's counters leaves
  // ones/twos all zero for the next slot.
  const auto classify_band = [&](std::size_t b) {
    Band& band = bands[b];
    band.others.clear();
    band.collisions = 0;
    band.decoded = 0;
    band.fresh = false;
    band.forwards = false;
    for (std::size_t i = band.tx_lo; i < band.tx_hi; ++i) {
      const std::uint32_t w = tx_words[i];
      if ((ones_[w] | twos_[w]) == 0) transmitting_[w] = 0;
    }
    const auto load_forward = [&](std::size_t w, std::uint64_t plain) {
      transmitting_[w] = plain;
      if (plain == 0) return;
      band.forwards = true;
      const std::size_t sw = w / kWordBits;
      const std::uint64_t bit = std::uint64_t{1} << (w % kWordBits);
      if (sw * kWordBits >= band.lo && (sw + 1) * kWordBits <= band.hi) {
        tx_summary_[sw] |= bit;
      } else {
        std::atomic_ref<std::uint64_t>(tx_summary_[sw])
            .fetch_or(bit, std::memory_order_relaxed);
      }
    };
    for (const std::uint32_t w : band.touched) {
      const std::uint64_t t = transmitting_[w];
      const std::uint64_t collided = twos_[w] & ~t;
      const std::uint64_t rx = ones_[w] & ~twos_[w] & ~t;
      const std::uint64_t fresh = rx & ~received_[w];
      band.collisions += static_cast<std::size_t>(bit_count(collided));
      band.decoded += static_cast<std::size_t>(bit_count(rx));

      const auto node_at = [w](std::uint64_t set) {
        return static_cast<NodeId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(set)));
      };
      if (fresh != 0) {
        for (std::uint64_t set = fresh; set != 0; set &= set - 1) {
          out.first_rx[node_at(set)] = slot;
        }
        band.fresh = true;
        for (std::uint64_t set = fresh & other_relays[w]; set != 0;
             set &= set - 1) {
          band.others.push_back(node_at(set));
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
      load_forward(w, fresh & plain_relays[w]);
      received_[w] |= fresh;
      ones_[w] = 0;
      twos_[w] = 0;
    }
  };

  // Progress is pure observation: it reads R and the wall clock, never
  // the kernel state, so instrumented runs stay bit-identical.
  const auto run_start = std::chrono::steady_clock::now();
  std::uint64_t slots_done = 0;
  const auto report_progress = [&](std::size_t frontier) {
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
    if (forwards_pending) {
      next = slot + 1;
    } else if (!schedule.empty()) {
      next = schedule.begin()->first;
    } else {
      break;
    }
    if (next > options.max_slots) break;
    slot = next;
    if (!schedule.empty() && schedule.begin()->first == slot) {
      for (const NodeId v : schedule.begin()->second) {
        const std::size_t w = v / kWordBits;
        transmitting_[w] |= std::uint64_t{1} << (v % kWordBits);
        tx_summary_[w / kWordBits] |= std::uint64_t{1} << (w % kWordBits);
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

    // Band b takes the T words between quantiles b and b + 1, and the
    // target words from its first T word up to the next band's.
    const std::size_t band_count = std::clamp<std::size_t>(
        tx_words.size() / kMinBandWords, 1, lease.width());
    for (std::size_t b = 0; b < band_count; ++b) {
      Band& band = bands[b];
      band.tx_lo = b * tx_words.size() / band_count;
      band.tx_hi = (b + 1) * tx_words.size() / band_count;
      band.lo = b == 0 ? 0 : tx_words[band.tx_lo];
      band.hi = b + 1 == band_count ? words_ : tx_words[band.tx_hi];
    }

    lease.run(band_count, hear_band);

    // --- transmit pass: records and energy, id-ascending ----------------
    //
    // The bands listed their senders in id order, and band order is id
    // order, so the records and the tx_energy running sum see exactly the
    // reference's addends in its sequence, bit for bit.
    const std::size_t first_record = out.transmissions.size();
    for (std::size_t b = 0; b < band_count; ++b) {
      Band& band = bands[b];
      band.first_record = out.transmissions.size();
      for (std::size_t k = 0; k < band.senders.size(); ++k) {
        const NodeId v = band.senders[k];
        out.transmissions.push_back(TxRecord{slot, v, 0, 0});
        const Joules cost = tx_cost(v, band.rule_sets[k]);
        out.stats.tx_energy += cost;
        if (options.record_node_energy) out.node_energy[v] += cost;
      }
    }
    const std::size_t frontier = out.transmissions.size() - first_record;
    out.stats.tx += frontier;

    lease.run(band_count, attribute_band);
    lease.run(band_count, classify_band);

    // --- merge, in band order -------------------------------------------
    std::size_t attributed = 0;
    std::size_t decoded = 0;
    forwards_pending = false;
    for (std::size_t b = 0; b < band_count; ++b) {
      const Band& band = bands[b];
      attributed += band.attributed;
      decoded += band.decoded;
      out.stats.collisions += band.collisions;
      rx_charges += band.decoded;
      if (options.charge_collisions) rx_charges += band.collisions;
      if (band.fresh) out.stats.delay = slot;  // slots only ascend
      forwards_pending = forwards_pending || band.forwards;
      for (const NodeId v : band.others) schedule_node(v, slot);
    }
    out.stats.rx += decoded;
    WSN_ASSERT(attributed == decoded);

    ++slots_done;
    last_frontier = frontier;
    if (progress_ && progress_every_ != 0 &&
        slots_done % progress_every_ == 0) {
      report_progress(frontier);
    }
  }
  if (progress_ && slots_done != 0 &&
      (progress_every_ == 0 || slots_done % progress_every_ != 0)) {
    report_progress(last_frontier);
  }
  // One add per decode and charged collision, like the reference -- the
  // addends are all the same constant, so matching the count matches the
  // bits, which repeated_sum forms without making each addition.
  out.stats.rx_energy = repeated_sum(rx_cost, rx_charges);

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

BroadcastOutcome BulkSimulator::rerun(const ImplicitLattice& lat,
                                      const FlatRelayPlan& base,
                                      std::span<const OffsetEdit> overlay,
                                      const BroadcastOutcome& prev,
                                      const SimOptions& options) {
  WSN_SPAN("sim.bulk_rerun");
  const std::size_t n = lat.num_nodes();
  WSN_EXPECTS(base.num_nodes() == n && prev.first_rx.size() == n);
  WSN_EXPECTS(options_supported(options));
  WSN_EXPECTS(!options.record_node_energy || prev.node_energy.size() == n);
  base.validate();
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    const OffsetEdit& edit = overlay[i];
    WSN_EXPECTS(edit.node < n && (i == 0 || edit.node > overlay[i - 1].node));
    WSN_EXPECTS(edit.node != base.source() || !edit.after.empty());
    Slot last = 0;
    for (const Slot offset : edit.after) {
      WSN_EXPECTS(offset > last);  // >= 1 and strictly increasing
      last = offset;
    }
  }

  words_ = word_count(n);
  const std::uint64_t* const masks = lat.rule_masks().data();
  const std::vector<ShiftRule>& rules = lat.rules();
  const std::size_t num_rules = rules.size();
  const Slot max_slots = options.max_slots;
  const std::vector<Slot>& old_rx = prev.first_rx;

  BroadcastOutcome out;
  out.first_rx = prev.first_rx;
  std::vector<Slot>& new_rx = out.first_rx;

  // A node's list on either side: the overlay's where it names the node,
  // else the base's.
  edited_.assign(words_, 0);
  for (const OffsetEdit& edit : overlay) {
    edited_[edit.node / kWordBits] |= std::uint64_t{1}
                                      << (edit.node % kWordBits);
  }
  const auto edit_of = [&](NodeId v) -> const OffsetEdit& {
    return *std::lower_bound(
        overlay.begin(), overlay.end(), v,
        [](const OffsetEdit& edit, NodeId id) { return edit.node < id; });
  };
  const auto offsets_of = [&](NodeId v, bool after) {
    if ((edited_[v / kWordBits] >> (v % kWordBits) & 1u) == 0) {
      return base.offsets(v);
    }
    const OffsetEdit& edit = edit_of(v);
    return after ? edit.after : edit.before;
  };
  // Whether v transmits in slot t: bit 0 before the edit, bit 1 after.
  // An unedited node's relay bits answer without its offsets, except for
  // the few other relays; an edited one is looked up once for both sides.
  const std::span<const std::uint64_t> plain_relays = base.plain_relays();
  const std::span<const std::uint64_t> other_relays = base.other_relays();
  const auto sends = [&](NodeId v, Slot t) -> unsigned {
    if (t > max_slots) return 0;
    const Slot rx_before = old_rx[v];
    const Slot rx_after = new_rx[v];
    // kNeverSlot is the largest slot, so an unreached node fails t > rx.
    const bool may_before = t > rx_before;
    const bool may_after = t > rx_after;
    if (!may_before && !may_after) return 0;
    const auto holds = [](std::span<const Slot> offsets, Slot offset) {
      for (const Slot o : offsets) {
        if (o >= offset) return o == offset;
      }
      return false;
    };
    const std::size_t w = v / kWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (v % kWordBits);
    std::span<const Slot> before;
    std::span<const Slot> after;
    if ((edited_[w] & bit) == 0) {
      if ((plain_relays[w] & bit) != 0) {
        return unsigned{may_before && t - rx_before == 1} |
               unsigned{may_after && t - rx_after == 1} << 1;
      }
      if ((other_relays[w] & bit) == 0) return 0;
      before = after = base.offsets(v);
    } else {
      const OffsetEdit& edit = edit_of(v);
      before = edit.before;
      after = edit.after;
    }
    return unsigned{may_before && holds(before, t - rx_before)} |
           unsigned{may_after && holds(after, t - rx_after)} << 1;
  };
  const auto for_each_neighbor = [&](NodeId u, auto&& fn) {
    const std::size_t w = u / kWordBits;
    const unsigned bit = u % kWordBits;
    for (std::size_t r = 0; r < num_rules; ++r) {
      if ((masks[r * words_ + w] >> bit & 1u) != 0) {
        fn(static_cast<NodeId>(static_cast<std::int64_t>(u) + rules[r].delta));
      }
    }
  };

  // --- the dirty (node, slot) pairs, by slot ------------------------------
  std::map<Slot, std::vector<NodeId>>& dirty = dirty_;
  dirty.clear();
  Slot now = 0;  // pairs at or before the slot being visited are done
  std::size_t work = 0;
  const auto mark = [&](NodeId u, Slot t) {
    if (t <= now || t > max_slots) return;
    dirty[t].push_back(u);
    ++work;
  };
  // A change in whether v sends at t: v itself (half-duplex) and every
  // neighbour hear differently.
  const auto mark_schedule = [&](NodeId v, Slot rx, bool after) {
    if (rx == kNeverSlot) return;
    for (const Slot offset : offsets_of(v, after)) {
      const Slot t = rx + offset;
      if (t <= now || t > max_slots) continue;
      std::vector<NodeId>& pairs = dirty[t];
      pairs.push_back(v);
      for_each_neighbor(v, [&](NodeId w) { pairs.push_back(w); });
      work += 1 + num_rules;
    }
  };
  for (const OffsetEdit& edit : overlay) {
    if (std::ranges::equal(edit.before, edit.after)) continue;
    mark_schedule(edit.node, old_rx[edit.node], false);
    mark_schedule(edit.node, old_rx[edit.node], true);
  }

  // What the visits change: record presence and delivered/fresh deltas,
  // keyed (slot, sender); the nodes whose first_rx moved; the nodes whose
  // energy events changed; and the counters.
  const auto key_of = [](Slot slot, NodeId node) {
    return std::uint64_t{slot} << 32 | node;
  };
  struct RecordChange {
    Slot slot = 0;
    NodeId node = kInvalidNode;
    int presence = 0;  // +1 the record appears, -1 it goes
    int delivered = 0;
    int fresh = 0;
  };
  std::vector<RecordChange> changes;
  std::vector<NodeId> moved;
  std::vector<NodeId> recharged;
  std::int64_t rx_delta = 0;
  std::int64_t collision_delta = 0;
  const std::size_t budget = std::max(
      kReprobeMinWork, prev.transmissions.size() / kReprobeWorkShare);

  std::vector<NodeId> nodes;
  while (!dirty.empty()) {
    if (work > budget) {
      dirty.clear();
      return run(lat, with_after_lists(base, overlay), options);
    }
    const auto first = dirty.begin();
    now = first->first;
    const Slot t = now;
    nodes.swap(first->second);
    dirty.erase(first);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

    for (const NodeId u : nodes) {
      const unsigned sent = sends(u, t);
      const bool sent_before = (sent & 1u) != 0;
      const bool sent_after = (sent & 2u) != 0;
      unsigned heard_before = 0;
      unsigned heard_after = 0;
      NodeId from_before = kInvalidNode;
      NodeId from_after = kInvalidNode;
      for_each_neighbor(u, [&](NodeId w) {
        const unsigned sending = sends(w, t);
        if ((sending & 1u) != 0) {
          heard_before += 1;
          from_before = w;
        }
        if ((sending & 2u) != 0) {
          heard_after += 1;
          from_after = w;
        }
      });
      const bool decoded_before = !sent_before && heard_before == 1;
      const bool decoded_after = !sent_after && heard_after == 1;
      const bool collided_before = !sent_before && heard_before >= 2;
      const bool collided_after = !sent_after && heard_after >= 2;
      rx_delta += int{decoded_after} - int{decoded_before};
      collision_delta += int{collided_after} - int{collided_before};
      if (sent_before != sent_after) {
        changes.push_back({t, u, sent_after ? 1 : -1, 0, 0});
      }

      // First reception.  new_rx[u] is old_rx[u] until it moves, or
      // kNeverSlot while u looks for a new first reception, and a slot
      // once found: it moves at most to never and back, each time here.
      const Slot was = new_rx[u];
      if (decoded_after && t < was) {
        // Reached earlier, or again: both schedules go dirty, and the old
        // first reception, if still ahead, turns into a duplicate.
        new_rx[u] = t;
        moved.push_back(u);
        mark_schedule(u, old_rx[u], false);
        mark_schedule(u, old_rx[u], true);
        mark_schedule(u, t, true);
        if (old_rx[u] != kNeverSlot) mark(u, old_rx[u]);
      } else if (!decoded_after && was == t) {
        // The first reception is gone: the schedule goes dirty, and every
        // later slot a neighbour sent in may hold the new one.
        new_rx[u] = kNeverSlot;
        moved.push_back(u);
        mark_schedule(u, t, false);
        mark_schedule(u, t, true);
        for_each_neighbor(u, [&](NodeId w) {
          if (old_rx[w] == kNeverSlot) return;
          for (const Slot offset : offsets_of(w, false)) {
            mark(u, old_rx[w] + offset);
          }
        });
      }

      const bool fresh_before = decoded_before && t == old_rx[u];
      const bool fresh_after = decoded_after && t == new_rx[u];
      if (decoded_before != decoded_after || from_before != from_after ||
          fresh_before != fresh_after) {
        if (decoded_before) {
          changes.push_back({t, from_before, 0, -1, -int{fresh_before}});
        }
        if (decoded_after) {
          changes.push_back({t, from_after, 0, 1, int{fresh_after}});
        }
      }
      if (options.record_node_energy) {
        const bool charged_before =
            decoded_before || (options.charge_collisions && collided_before);
        const bool charged_after =
            decoded_after || (options.charge_collisions && collided_after);
        if (sent_before != sent_after || charged_before != charged_after) {
          recharged.push_back(u);
        }
      }
    }
  }

  // --- fold the changes in ----------------------------------------------
  std::sort(moved.begin(), moved.end());
  moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
  std::size_t reached = prev.stats.reached;
  for (const NodeId u : moved) {
    if (old_rx[u] == kNeverSlot) reached += 1;
    if (new_rx[u] == kNeverSlot) reached -= 1;
  }

  // Records, merged in (slot, id) order: the unchanged runs are copied
  // whole, and each changed key is dropped, adjusted or inserted.
  std::sort(changes.begin(), changes.end(),
            [&](const RecordChange& a, const RecordChange& b) {
              return key_of(a.slot, a.node) < key_of(b.slot, b.node);
            });
  const std::vector<TxRecord>& old_records = prev.transmissions;
  std::vector<TxRecord>& records = out.transmissions;
  records.reserve(old_records.size() + changes.size());
  std::size_t copied = 0;
  for (std::size_t i = 0; i < changes.size();) {
    TxRecord rec{changes[i].slot, changes[i].node, 0, 0};
    const std::uint64_t key = key_of(rec.slot, rec.node);
    int presence = 0;
    std::int64_t delivered = 0;
    std::int64_t fresh = 0;
    for (; i < changes.size() &&
           key_of(changes[i].slot, changes[i].node) == key;
         ++i) {
      presence += changes[i].presence;
      delivered += changes[i].delivered;
      fresh += changes[i].fresh;
    }
    const auto from = old_records.begin() + static_cast<std::ptrdiff_t>(copied);
    const auto at = std::lower_bound(
        from, old_records.end(), key, [&](const TxRecord& old, std::uint64_t k) {
          return key_of(old.slot, old.node) < k;
        });
    records.insert(records.end(), from, at);
    copied = static_cast<std::size_t>(at - old_records.begin());
    if (at != old_records.end() && key_of(at->slot, at->node) == key) {
      WSN_ASSERT(presence <= 0);
      rec = *at;
      copied += 1;
      if (presence < 0) continue;
    } else {
      WSN_ASSERT(presence == 1);
    }
    delivered += rec.delivered;
    fresh += rec.fresh;
    WSN_ASSERT(delivered >= 0 && fresh >= 0 && fresh <= delivered);
    rec.delivered = static_cast<std::uint32_t>(delivered);
    rec.fresh = static_cast<std::uint32_t>(fresh);
    records.push_back(rec);
  }
  records.insert(records.end(),
                 old_records.begin() + static_cast<std::ptrdiff_t>(copied),
                 old_records.end());

  // --- stats, with the engine's sums in the engine's order --------------
  BroadcastStats& stats = out.stats;
  stats.num_nodes = n;
  stats.reached = reached;
  stats.tx = records.size();
  stats.rx = static_cast<std::size_t>(
      static_cast<std::int64_t>(prev.stats.rx) + rx_delta);
  stats.collisions = static_cast<std::size_t>(
      static_cast<std::int64_t>(prev.stats.collisions) + collision_delta);
  stats.duplicates = stats.rx - (reached - 1);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->fresh != 0) {
      stats.delay = it->slot;  // the last slot with a first reception
      break;
    }
  }
  // Where the cost follows from the rule set, most transmitters have
  // every rule: one AND of the masks answers for them, and only the
  // others gather their rule set.
  TxCosts tx_cost(lat, options);
  const auto cost_of = [&](NodeId v) {
    return tx_cost(v, rule_set_of(masks, words_, num_rules, v));
  };
  std::vector<std::uint64_t> interior(words_, 0);
  if (tx_cost.by_rules()) {
    interior.assign(masks, masks + words_);
    for (std::size_t r = 1; r < num_rules; ++r) {
      for (std::size_t w = 0; w < words_; ++w) {
        interior[w] &= masks[r * words_ + w];
      }
    }
  }
  std::optional<Joules> interior_cost;
  for (const TxRecord& rec : records) {
    const NodeId v = rec.node;
    if ((interior[v / kWordBits] >> (v % kWordBits) & 1u) == 0) {
      stats.tx_energy += cost_of(v);
      continue;
    }
    if (!interior_cost) interior_cost = cost_of(v);
    stats.tx_energy += *interior_cost;
  }
  const Joules rx_cost = options.radio.rx_energy(options.packet_bits);
  stats.rx_energy = repeated_sum(
      rx_cost, stats.rx + (options.charge_collisions ? stats.collisions : 0));

  // Per-node energy: each node whose events changed replays its whole
  // life in slot order -- its transmissions, its decodes and its charged
  // collisions, read off its and its neighbours' schedules.
  if (options.record_node_energy) {
    out.node_energy = prev.node_energy;
    std::sort(recharged.begin(), recharged.end());
    recharged.erase(std::unique(recharged.begin(), recharged.end()),
                    recharged.end());
    std::vector<Slot> heard;
    std::vector<Slot> sent;
    for (const NodeId u : recharged) {
      heard.clear();
      sent.clear();
      const auto schedule = [&](NodeId v, std::vector<Slot>& slots) {
        if (new_rx[v] == kNeverSlot) return;
        for (const Slot offset : offsets_of(v, true)) {
          if (new_rx[v] + offset <= max_slots) {
            slots.push_back(new_rx[v] + offset);
          }
        }
      };
      schedule(u, sent);
      for_each_neighbor(u, [&](NodeId w) { schedule(w, heard); });
      std::sort(heard.begin(), heard.end());
      const Joules cost = cost_of(u);
      Joules energy = 0.0;
      std::size_t h = 0;
      for (std::size_t k = 0; k < sent.size() || h < heard.size();) {
        if (k < sent.size() && (h == heard.size() || sent[k] <= heard[h])) {
          energy += cost;  // sending, u hears nothing in that slot
          const Slot t = sent[k++];
          while (h < heard.size() && heard[h] == t) ++h;
          continue;
        }
        const Slot t = heard[h];
        std::size_t senders = 0;
        for (; h < heard.size() && heard[h] == t; ++h) senders += 1;
        if (senders == 1 || options.charge_collisions) energy += rx_cost;
      }
      out.node_energy[u] = energy;
    }
  }
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
