#include "store/plan_store.h"

#include <cstdio>

#include "common/assert.h"

namespace wsn {

PlanStore::PlanStore() : PlanStore(Config{}) {}

PlanStore::PlanStore(Config config)
    : memory_(ShardedPlanCache::Config{config.mem_capacity,
                                       config.mem_shards}) {
  if (!config.disk_dir.empty()) disk_.emplace(config.disk_dir);
}

void PlanStore::bind_metrics(MetricsRegistry& registry) {
  memory_.bind_metrics(registry, "store.mem");
  disk_hits_metric_ = &registry.counter("store.disk.hits");
  disk_rejects_metric_ = &registry.counter("store.disk.rejects");
  compiles_metric_ = &registry.counter("store.compiles");
  bypasses_metric_ = &registry.counter("store.bypasses");
  read_retries_metric_ = &registry.counter("store.read_retries");
}

template <typename Compile>
std::shared_ptr<const StoredPlan> PlanStore::fetch(
    const Topology& topo, NodeId source, std::string_view protocol_id,
    const SimOptions& options, const Compile& compile, Origin* origin) {
  const auto compiled = [&] {
    auto value = std::make_shared<StoredPlan>();
    value->plan = FlatRelayPlan::from(compile(*value));
    WSN_ENSURES(value->plan.num_nodes() == topo.num_nodes());
    WSN_ENSURES(value->quality.empty() ||
                value->quality.size() == topo.num_directed_links());
    return std::shared_ptr<const StoredPlan>(std::move(value));
  };

  if (!plan_cache_eligible(options)) {
    count(bypasses_, bypasses_metric_);
    if (origin != nullptr) *origin = Origin::kBypass;
    return compiled();
  }

  const PlanFingerprint fp =
      fingerprint_plan_request(digest_for(topo), source, protocol_id,
                               options);

  if (auto hit = memory_.get(fp.key)) {
    if (origin != nullptr) *origin = Origin::kMemory;
    return hit;
  }

  bool rewrite_artifact = false;
  if (disk_) {
    StoredPlan from_disk;
    const std::uint64_t retries_before = disk_->read_retries();
    const PlanSerdeStatus status = disk_->load(fp, from_disk);
    const std::uint64_t retries_spent =
        disk_->read_retries() - retries_before;
    if (retries_spent > 0) {
      read_retries_.fetch_add(retries_spent, std::memory_order_relaxed);
      if (read_retries_metric_ != nullptr) {
        read_retries_metric_->add(retries_spent);
      }
    }
    if (status == PlanSerdeStatus::kOk &&
        from_disk.plan.num_nodes() == topo.num_nodes() &&
        from_disk.plan.source() == source &&
        (from_disk.quality.empty() ||
         from_disk.quality.size() == topo.num_directed_links())) {
      count(disk_hits_, disk_hits_metric_);
      auto value = std::make_shared<const StoredPlan>(std::move(from_disk));
      memory_.put(fp.key, value);
      if (origin != nullptr) *origin = Origin::kDisk;
      return value;
    }
    if (status != PlanSerdeStatus::kNotFound) {
      // Corrupt, stale-version, or (impossible short of a key collision)
      // mismatched artifact -- a plan or quality vector sized for another
      // topology: a miss that the recompile below overwrites.
      count(disk_rejects_, disk_rejects_metric_);
      rewrite_artifact = true;
    }
  }

  count(compiles_, compiles_metric_);
  std::shared_ptr<const StoredPlan> value = compiled();
  memory_.put(fp.key, value);
  if (disk_ && !disk_->save(fp, *value) && rewrite_artifact) {
    std::fprintf(stderr, "plan store: cannot rewrite artifact %s\n",
                 disk_->artifact_path(fp).c_str());
  }
  if (origin != nullptr) *origin = Origin::kCompiled;
  return value;
}

std::shared_ptr<const StoredPlan> PlanStore::fetch_or_compile(
    const Topology& topo, NodeId source, std::string_view protocol_id,
    const SimOptions& options, const CompileFn& compile, Origin* origin) {
  return fetch(
      topo, source, protocol_id, options,
      [&compile](StoredPlan& value) { return compile(value.report); },
      origin);
}

std::shared_ptr<const StoredPlan> PlanStore::fetch_or_compile(
    const Topology& topo, NodeId source, std::string_view protocol_id,
    const SimOptions& options, const LearnedCompileFn& compile,
    Origin* origin) {
  return fetch(
      topo, source, protocol_id, options,
      [&compile](StoredPlan& value) {
        return compile(value.report, value.quality);
      },
      origin);
}

TopologyDigest PlanStore::digest_for(const Topology& topo) {
  const std::string name = topo.name();
  const std::size_t nodes = topo.num_nodes();
  const std::size_t links = topo.num_directed_links();
  {
    const std::lock_guard<std::mutex> lock(digests_mutex_);
    const auto it = digests_.find(&topo);
    if (it != digests_.end() && it->second.name == name &&
        it->second.nodes == nodes && it->second.links == links) {
      return it->second.digest;
    }
  }
  TopologyDigest digest = digest_topology(topo);
  {
    const std::lock_guard<std::mutex> lock(digests_mutex_);
    digests_[&topo] = DigestEntry{name, nodes, links, digest};
  }
  return digest;
}

PlanStore::Stats PlanStore::stats() const noexcept {
  return Stats{disk_hits_.load(std::memory_order_relaxed),
               disk_rejects_.load(std::memory_order_relaxed),
               compiles_.load(std::memory_order_relaxed),
               bypasses_.load(std::memory_order_relaxed),
               read_retries_.load(std::memory_order_relaxed)};
}

std::string_view to_string(PlanStore::Origin origin) noexcept {
  switch (origin) {
    case PlanStore::Origin::kMemory:
      return "memory hit";
    case PlanStore::Origin::kDisk:
      return "disk hit";
    case PlanStore::Origin::kCompiled:
      return "compiled";
    case PlanStore::Origin::kBypass:
      return "bypass";
  }
  return "unknown";
}

RelayPlan paper_plan_cached(const Topology& topo, NodeId source,
                            const SimOptions& options, PlanStore& store,
                            ResolveReport* report,
                            PlanStore::Origin* origin) {
  const std::shared_ptr<const StoredPlan> stored = store.fetch_or_compile(
      topo, source, "paper", options,
      [&](ResolveReport& fresh_report) {
        return paper_plan(topo, source, options, &fresh_report);
      },
      origin);
  if (report != nullptr) *report = stored->report;
  return stored->plan.to_relay_plan();
}

}  // namespace wsn
