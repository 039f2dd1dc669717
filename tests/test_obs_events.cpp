#include "obs/event_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

namespace wsn {
namespace {

TEST(EventKind, NamesAreStable) {
  EXPECT_EQ(to_string(EventKind::kTx), "tx");
  EXPECT_EQ(to_string(EventKind::kRx), "rx");
  EXPECT_EQ(to_string(EventKind::kDuplicate), "dup");
  EXPECT_EQ(to_string(EventKind::kCollision), "coll");
  EXPECT_EQ(to_string(EventKind::kLossFading), "fade");
  EXPECT_EQ(to_string(EventKind::kLossCrash), "crash");
  EXPECT_EQ(to_string(EventKind::kRelayActivation), "relay_on");
  EXPECT_EQ(to_string(EventKind::kPipelineDefer), "defer");
}

TEST(EventSink, RecordsInOrder) {
  EventSink sink(8);
  sink.record({1, EventKind::kTx, 3});
  sink.record({1, EventKind::kRx, 4, 3});
  sink.record({2, EventKind::kCollision, 5, kInvalidNode, 0, 2});
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);

  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (Event{1, EventKind::kTx, 3}));
  EXPECT_EQ(events[1], (Event{1, EventKind::kRx, 4, 3}));
  EXPECT_EQ(events[2].detail, 2u);
}

TEST(EventSink, RingKeepsTheMostRecentEvents) {
  EventSink sink(4);
  EXPECT_EQ(sink.capacity(), 4u);
  for (Slot s = 1; s <= 10; ++s) sink.record({s, EventKind::kTx, 0});
  EXPECT_EQ(sink.total(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);

  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].slot, 7u + i);  // oldest retained first
  }
}

TEST(EventSink, KindCountsIncludeDroppedEvents) {
  EventSink sink(2);
  for (int i = 0; i < 5; ++i) sink.record({1, EventKind::kCollision, 0});
  sink.record({2, EventKind::kTx, 0});
  EXPECT_EQ(sink.count(EventKind::kCollision), 5u);
  EXPECT_EQ(sink.count(EventKind::kTx), 1u);
  EXPECT_EQ(sink.count(EventKind::kRx), 0u);
  EXPECT_EQ(sink.size(), 2u);  // only the tail is retained...
  EXPECT_EQ(sink.total(), 6u);  // ...but the totals see everything
}

TEST(EventSink, ClearForgetsEventsAndCounts) {
  EventSink sink(4);
  sink.record({1, EventKind::kTx, 0});
  sink.record({1, EventKind::kRx, 1, 0});
  sink.clear();
  EXPECT_EQ(sink.total(), 0u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.count(EventKind::kTx), 0u);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.capacity(), 4u);

  sink.record({3, EventKind::kDuplicate, 2, 1});
  EXPECT_EQ(sink.total(), 1u);
  EXPECT_EQ(sink.events().front().slot, 3u);
}

TEST(EventSink, CapacityIsTheConfiguredBoundNotTheGrowth) {
  // The ring grows on demand; capacity() reports the bound it grows to.
  EventSink sink(1000);
  EXPECT_EQ(sink.capacity(), 1000u);
  sink.record({1, EventKind::kTx, 0});
  EXPECT_EQ(sink.capacity(), 1000u);
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(EventSink().capacity(), EventSink::kDefaultCapacity);
}

TEST(EventSink, GrowingRingWrapsExactlyLikeAFixedRing) {
  // Reference: a bounded deque that drops its oldest event.  Order,
  // dropped() and per-kind totals must agree at every step, before,
  // at and after the point the growing ring first wraps.
  for (const std::size_t capacity : {1u, 5u, 7u, 64u}) {
    EventSink sink(capacity);
    std::deque<Event> reference;
    std::array<std::uint64_t, kEventKindCount> kinds{};
    for (std::uint32_t i = 0; i < 3 * capacity + 11; ++i) {
      const Event event{i / 3, static_cast<EventKind>(i % kEventKindCount),
                        i};
      sink.record(event);
      reference.push_back(event);
      if (reference.size() > capacity) reference.pop_front();
      kinds[i % kEventKindCount] += 1;

      const std::vector<Event> events = sink.events();
      ASSERT_EQ(events.size(), reference.size());
      ASSERT_TRUE(std::equal(events.begin(), events.end(),
                             reference.begin()))
          << "capacity " << capacity << " after " << i + 1;
      ASSERT_EQ(sink.total(), i + 1u);
      ASSERT_EQ(sink.dropped(), i + 1u - reference.size());
      ASSERT_EQ(sink.capacity(), capacity);
      for (std::size_t k = 0; k < kEventKindCount; ++k) {
        ASSERT_EQ(sink.count(static_cast<EventKind>(k)), kinds[k]);
      }
    }
  }
}

TEST(EventSink, ClearAfterWrapKeepsCapacityAndRegrows) {
  EventSink sink(4);
  for (Slot s = 1; s <= 9; ++s) sink.record({s, EventKind::kTx, 0});
  sink.clear();
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.events().empty());

  for (Slot s = 20; s <= 25; ++s) sink.record({s, EventKind::kRx, 1, 0});
  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].slot, 22u + i);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.count(EventKind::kRx), 6u);
  EXPECT_EQ(sink.count(EventKind::kTx), 0u);
}

}  // namespace
}  // namespace wsn
