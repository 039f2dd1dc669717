#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "protocol/registry.h"
#include "store/disk_store.h"
#include "store/fingerprint.h"
#include "store/memory_cache.h"
#include "store/serialize.h"

/// The plan store facade: memory tier over an optional disk tier over
/// compilation.
///
/// `fetch_or_compile` is the one entry point the rest of the system uses
/// (sweeps, the CLI, the scenario engine, the service).  The
/// protocol id names everything beyond the topology, source and horizon
/// that the plan depends on: "paper" and "cds" are pure functions of the
/// topology, while the scenario engine's ETX plans put their learned
/// channel -- fault kind/loss/burst, probe seed, estimator and planner
/// config -- into the id, and store the learned link quality beside the
/// plan (`StoredPlan::quality`).  Resolution order:
///
///   1. ineligible request (fault model / battery installed)  -> compile,
///      uncached (`Origin::kBypass`);
///   2. sharded in-memory LRU                                 -> kMemory;
///   3. disk artifact, fully verified (including a quality vector that
///      is either empty or one value per directed link); a corrupt /
///      truncated / stale-version artifact counts as a miss and is
///      *rewritten* after the recompile -- the store self-heals, it never
///      trusts and never aborts                               -> kDisk;
///   4. compile via the supplied callback, then populate both
///      tiers                                                 -> kCompiled.
///
/// Thread-safe throughout; a sweep shares one PlanStore across all of its
/// workers.  Two workers racing to compile the same key both succeed and
/// install identical values (plan compilation is deterministic -- that is
/// what made it cacheable), so no per-key compile lock is needed.
namespace wsn {

class PlanStore {
 public:
  struct Config {
    /// Memory-tier entry bound.
    std::size_t mem_capacity = 2048;
    /// Memory-tier lock shards.
    std::size_t mem_shards = 16;
    /// Artifact directory; empty = memory-only store.
    std::string disk_dir;
  };

  /// Where a fetched plan came from.
  enum class Origin { kMemory, kDisk, kCompiled, kBypass };

  struct Stats {
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_rejects = 0;  // artifacts that failed verification
    std::uint64_t compiles = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t read_retries = 0;  // transient disk-read retries
  };

  PlanStore();
  explicit PlanStore(Config config);

  /// Mirrors memory-tier and facade counters into `registry`
  /// (`store.mem.*`, `store.disk.hits`, `store.disk.rejects`,
  /// `store.compiles`, `store.bypasses`, `store.read_retries`).  Call
  /// before going concurrent.
  void bind_metrics(MetricsRegistry& registry);

  /// Builds `(topo, source, protocol_id, options)`'s plan via the cache
  /// tiers, calling `compile` only on a full miss.  `compile` must be a
  /// pure function of those inputs and safe to call concurrently.
  using CompileFn = std::function<RelayPlan(ResolveReport&)>;
  [[nodiscard]] std::shared_ptr<const StoredPlan> fetch_or_compile(
      const Topology& topo, NodeId source, std::string_view protocol_id,
      const SimOptions& options, const CompileFn& compile,
      Origin* origin = nullptr);

  /// A compile that also returns the link quality it learned, stored
  /// beside the plan: empty, or one value per directed link in CSR order.
  using LearnedCompileFn =
      std::function<RelayPlan(ResolveReport&, std::vector<double>& quality)>;
  [[nodiscard]] std::shared_ptr<const StoredPlan> fetch_or_compile(
      const Topology& topo, NodeId source, std::string_view protocol_id,
      const SimOptions& options, const LearnedCompileFn& compile,
      Origin* origin = nullptr);

  [[nodiscard]] ShardedPlanCache& memory() noexcept { return memory_; }
  /// The disk tier, or nullptr for a memory-only store.
  [[nodiscard]] PlanDiskStore* disk() noexcept {
    return disk_ ? &*disk_ : nullptr;
  }

  [[nodiscard]] Stats stats() const noexcept;

 private:
  /// Both `fetch_or_compile`s: `compile(StoredPlan&)` fills the report
  /// and quality of a fresh value and returns its plan.
  template <typename Compile>
  [[nodiscard]] std::shared_ptr<const StoredPlan> fetch(
      const Topology& topo, NodeId source, std::string_view protocol_id,
      const SimOptions& options, const Compile& compile, Origin* origin);

  void count(std::atomic<std::uint64_t>& local, Counter* mirrored) noexcept {
    local.fetch_add(1, std::memory_order_relaxed);
    if (mirrored != nullptr) mirrored->increment();
  }

  /// The O(links) topology digest, memoized per Topology object so a
  /// 512-source sweep pays for it once, not per source.  Entries are
  /// keyed by address and re-verified against the cheap identity fields
  /// (`name`, node and link counts) on every use: topologies here are
  /// immutable after construction, so a matching identity at the same
  /// address is the same adjacency.
  [[nodiscard]] TopologyDigest digest_for(const Topology& topo);

  struct DigestEntry {
    std::string name;
    std::size_t nodes = 0;
    std::size_t links = 0;
    TopologyDigest digest;
  };
  std::mutex digests_mutex_;
  std::unordered_map<const Topology*, DigestEntry> digests_;

  ShardedPlanCache memory_;
  std::optional<PlanDiskStore> disk_;

  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> disk_rejects_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> bypasses_{0};
  std::atomic<std::uint64_t> read_retries_{0};
  Counter* disk_hits_metric_ = nullptr;
  Counter* disk_rejects_metric_ = nullptr;
  Counter* compiles_metric_ = nullptr;
  Counter* bypasses_metric_ = nullptr;
  Counter* read_retries_metric_ = nullptr;
};

[[nodiscard]] std::string_view to_string(PlanStore::Origin origin) noexcept;

/// `paper_plan` (protocol/registry.h) through a PlanStore: the family's
/// protocol id is "paper".  Drop-in for call sites that hold a store.
[[nodiscard]] RelayPlan paper_plan_cached(const Topology& topo, NodeId source,
                                          const SimOptions& options,
                                          PlanStore& store,
                                          ResolveReport* report = nullptr,
                                          PlanStore::Origin* origin = nullptr);

}  // namespace wsn
