#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/timeline.h"

/// Tracing for the benchmark's traced runs.
///
/// Two kinds of spans land in one place, the program's per-thread
/// Timeline rings: the spans the program already carries (WSN_SPAN:
/// scenario.job, plan.build, sim.simulate, service.*, ...) and the
/// benchmark's own spans around each public call it makes (BenchSpan
/// below: "paper_plan", "Simulator::run", ...).  Spans stay in memory and
/// are summarised when the traced pass ends.  Untraced runs leave the
/// Timeline disabled, so a BenchSpan then costs one relaxed load.
namespace meshbench {

/// Times one public call from outside, recording into the Timeline when
/// it is enabled.  `name` must be a string literal.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) noexcept
      : name_(name),
        on_(wsn::Timeline::instance().enabled()),
        begin_(on_ ? wsn::Timeline::instance().now_ns() : 0) {}
  ~BenchSpan() {
    if (on_) {
      wsn::Timeline& timeline = wsn::Timeline::instance();
      timeline.record(name_, begin_, timeline.now_ns());
    }
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  bool on_;
  std::uint64_t begin_;
};

/// Per-name aggregate over a timeline snapshot.  Self time is a span's
/// duration minus the part of it covered by its direct children -- the
/// spans on the same thread nested inside it.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;

  [[nodiscard]] double mean_ms() const noexcept {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
  [[nodiscard]] double mean_self_ms() const noexcept {
    return count == 0 ? 0.0 : self_ms / static_cast<double>(count);
  }
};

using SpanTable = std::map<std::string, SpanTotals, std::less<>>;

/// Aggregates every thread's records by span name.
[[nodiscard]] SpanTable summarize_spans(
    const std::vector<wsn::TimelineThreadDump>& threads);

/// Totals for `name`, zero when the span never ran.
[[nodiscard]] SpanTotals span(const SpanTable& table, std::string_view name);

/// Per request tag (obs/timeline.h RequestTagScope), the summed duration
/// in ms of the tagged records named in `names`.
[[nodiscard]] std::unordered_map<std::uint64_t, double> tagged_ms(
    const std::vector<wsn::TimelineThreadDump>& threads,
    const std::vector<std::string_view>& names);

/// Enables the Timeline with rings large enough for one traced pass and
/// clears what earlier passes recorded.
void start_tracing();
/// Disables the Timeline and returns its snapshot.
[[nodiscard]] std::vector<wsn::TimelineThreadDump> stop_tracing();

}  // namespace meshbench
