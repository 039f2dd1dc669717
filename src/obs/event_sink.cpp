#include "obs/event_sink.h"

#include "common/assert.h"

namespace wsn {

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTx: return "tx";
    case EventKind::kRx: return "rx";
    case EventKind::kDuplicate: return "dup";
    case EventKind::kCollision: return "coll";
    case EventKind::kLossFading: return "fade";
    case EventKind::kLossCrash: return "crash";
    case EventKind::kRelayActivation: return "relay_on";
    case EventKind::kPipelineDefer: return "defer";
  }
  return "?";
}

bool event_kind_from_string(std::string_view name, EventKind& out) noexcept {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    if (to_string(kind) == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

EventSink::EventSink(std::size_t capacity) : capacity_(capacity) {
  WSN_EXPECTS(capacity >= 1);
}

void EventSink::record(const Event& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  }
  total_ += 1;
  kind_counts_[static_cast<std::size_t>(event.kind)] += 1;
}

std::vector<Event> EventSink::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // Oldest retained event: `next_` once the ring is full, 0 before (and
  // `next_` stays 0 until the ring first wraps).
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  return out;
}

void EventSink::clear() noexcept {
  ring_.clear();  // keeps the allocation for the next run
  next_ = 0;
  total_ = 0;
  kind_counts_.fill(0);
}

}  // namespace wsn
