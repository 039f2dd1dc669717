#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/events.h"

/// Ring-buffered event sink.
///
/// Recording must be cheap enough to leave on for full paper-sized runs,
/// so the sink is a bounded ring that keeps the *most recent* `capacity`
/// events: long runs lose their oldest history, never their tail, and
/// `dropped()` says exactly how much fell off.  The ring grows on demand
/// up to `capacity` and wraps only after that, so a sink costs memory in
/// proportion to what it records -- a 512-node broadcast touches
/// kilobytes, not the default capacity's 24 MB.  Per-kind totals
/// are counted for every recorded event -- dropped or retained -- so
/// aggregate checks (e.g. "collision events == BroadcastStats::collisions")
/// hold regardless of retention.
///
/// Like FaultModel and BatteryBank, a sink is owned by one run at a time:
/// `record` is not synchronized and must not be shared across concurrent
/// simulations (metrics -- obs/metrics.h -- are the thread-safe half of the
/// observability story).
namespace wsn {

class EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit EventSink(std::size_t capacity = kDefaultCapacity);

  void record(const Event& event);

  /// Retained events in chronological order (oldest first).
  [[nodiscard]] std::vector<Event> events() const;

  /// Events recorded since construction/clear, dropped ones included.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Events that fell off the ring (total - retained).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ - ring_.size();
  }
  /// Retained event count (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// The configured retention bound, however far the ring has grown.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Total recorded events of `kind`, dropped ones included.
  [[nodiscard]] std::uint64_t count(EventKind kind) const noexcept {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  /// Forgets every event and zeroes all counts; capacity is kept.
  void clear() noexcept;

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;     // once full: the slot the next event lands in
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kEventKindCount> kind_counts_{};
};

}  // namespace wsn
