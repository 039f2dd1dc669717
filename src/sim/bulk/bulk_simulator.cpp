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
  // bits.
  for (std::size_t i = 0; i < rx_charges; ++i) out.stats.rx_energy += rx_cost;

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
