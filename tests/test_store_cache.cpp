// ShardedPlanCache: LRU semantics, capacity bounds, counter mirroring and
// concurrent access.  The concurrency tests double as the TSan targets for
// the store subsystem (ci.yml runs *Store* suites under TSan).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "store/memory_cache.h"

namespace wsn {
namespace {

PlanKey key_of(std::uint64_t n) { return PlanKey{n * 0x9e37u, n}; }

std::shared_ptr<const StoredPlan> plan_of(NodeId source) {
  auto value = std::make_shared<StoredPlan>();
  value->plan = RelayPlan(RelayPlan::empty(source + 1, source));
  return value;
}

TEST(StoreCache, MissThenHit) {
  ShardedPlanCache cache;
  EXPECT_EQ(cache.get(key_of(1)), nullptr);
  cache.put(key_of(1), plan_of(3));
  const auto hit = cache.get(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.source(), 3u);

  const ShardedPlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StoreCache, EvictsLeastRecentlyUsedAtCapacity) {
  // One shard so the LRU order is global and deterministic.
  ShardedPlanCache cache(ShardedPlanCache::Config{/*capacity=*/2,
                                                  /*shards=*/1});
  cache.put(key_of(1), plan_of(1));
  cache.put(key_of(2), plan_of(2));
  ASSERT_NE(cache.get(key_of(1)), nullptr);  // refresh 1; 2 is now LRU
  cache.put(key_of(3), plan_of(3));          // evicts 2

  EXPECT_NE(cache.get(key_of(1)), nullptr);
  EXPECT_EQ(cache.get(key_of(2)), nullptr);
  EXPECT_NE(cache.get(key_of(3)), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(StoreCache, PutRefreshesExistingKeyWithoutEviction) {
  ShardedPlanCache cache(ShardedPlanCache::Config{/*capacity=*/2,
                                                  /*shards=*/1});
  cache.put(key_of(1), plan_of(1));
  cache.put(key_of(2), plan_of(2));
  cache.put(key_of(1), plan_of(7));  // refresh, not insert: nothing evicted
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  const auto hit = cache.get(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.source(), 7u);
}

TEST(StoreCache, EvictedValueOutlivesEviction) {
  ShardedPlanCache cache(ShardedPlanCache::Config{/*capacity=*/1,
                                                  /*shards=*/1});
  cache.put(key_of(1), plan_of(4));
  const auto borrowed = cache.get(key_of(1));
  ASSERT_NE(borrowed, nullptr);
  cache.put(key_of(2), plan_of(5));  // evicts key 1
  EXPECT_EQ(cache.get(key_of(1)), nullptr);
  // The handed-out shared_ptr keeps the plan alive and intact.
  EXPECT_EQ(borrowed->plan.source(), 4u);
  borrowed->plan.validate();
}

TEST(StoreCache, ClearEmptiesEveryShard) {
  ShardedPlanCache cache;
  for (std::uint64_t i = 0; i < 64; ++i) cache.put(key_of(i), plan_of(0));
  EXPECT_EQ(cache.size(), 64u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(key_of(5)), nullptr);
}

TEST(StoreCache, MirrorsCountersIntoMetricsRegistry) {
  ShardedPlanCache cache;
  MetricsRegistry registry;
  cache.bind_metrics(registry);

  (void)cache.get(key_of(1));       // miss
  cache.put(key_of(1), plan_of(0));  // insertion
  (void)cache.get(key_of(1));       // hit

  EXPECT_EQ(registry.counter("store.mem.misses").value(), 1u);
  EXPECT_EQ(registry.counter("store.mem.insertions").value(), 1u);
  EXPECT_EQ(registry.counter("store.mem.hits").value(), 1u);
  EXPECT_EQ(registry.counter("store.mem.evictions").value(), 0u);
}

TEST(StoreCache, ConcurrentGetPutStaysConsistent) {
  // The sweep contention profile: every worker gets, and on miss puts, the
  // same keyspace.  Run under TSan in CI.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 2000;
  constexpr std::uint64_t kKeySpace = 97;
  ShardedPlanCache cache(ShardedPlanCache::Config{/*capacity=*/64,
                                                  /*shards=*/8});
  MetricsRegistry registry;
  cache.bind_metrics(registry);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const PlanKey key = key_of((t * 31 + i) % kKeySpace);
        const auto hit = cache.get(key);
        if (hit == nullptr) {
          cache.put(key, plan_of(static_cast<NodeId>(t)));
        } else {
          hit->plan.validate();  // shared immutable value stays readable
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const ShardedPlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  // Racing putters of one key: the first inserts, the rest refresh.
  EXPECT_GE(stats.insertions, kKeySpace);
  EXPECT_LE(stats.insertions, stats.misses);
  // Worst-case footprint documented in memory_cache.h.
  EXPECT_LE(cache.size(), 64u + 8u - 1u);
  EXPECT_EQ(registry.counter("store.mem.hits").value(), stats.hits);
}

}  // namespace
}  // namespace wsn
