#include "trace.h"

#include <algorithm>

namespace meshbench {

SpanTable summarize_spans(
    const std::vector<wsn::TimelineThreadDump>& threads) {
  SpanTable table;
  for (const wsn::TimelineThreadDump& thread : threads) {
    std::vector<wsn::TimelineRecord> records = thread.records;
    // Outer spans first: by begin, then longest first, so a parent always
    // precedes the children it contains.
    std::sort(records.begin(), records.end(),
              [](const wsn::TimelineRecord& a, const wsn::TimelineRecord& b) {
                return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                                : a.end_ns > b.end_ns;
              });
    std::vector<std::uint64_t> child_ns(records.size(), 0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < records.size(); ++i) {
      while (!open.empty() && records[open.back()].end_ns <= records[i].begin_ns) {
        open.pop_back();
      }
      while (!open.empty() && records[open.back()].end_ns < records[i].end_ns) {
        open.pop_back();  // overlaps without nesting: not a child
      }
      if (!open.empty()) {
        child_ns[open.back()] += records[i].end_ns - records[i].begin_ns;
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::uint64_t duration = records[i].end_ns - records[i].begin_ns;
      SpanTotals& totals = table[records[i].name];
      totals.count += 1;
      totals.total_ms += static_cast<double>(duration) / 1e6;
      totals.self_ms +=
          static_cast<double>(duration - std::min(duration, child_ns[i])) /
          1e6;
    }
  }
  return table;
}

SpanTotals span(const SpanTable& table, std::string_view name) {
  const auto it = table.find(name);
  return it == table.end() ? SpanTotals{} : it->second;
}

std::unordered_map<std::uint64_t, double> tagged_ms(
    const std::vector<wsn::TimelineThreadDump>& threads,
    const std::vector<std::string_view>& names) {
  std::unordered_map<std::uint64_t, double> out;
  for (const wsn::TimelineThreadDump& thread : threads) {
    for (const wsn::TimelineRecord& r : thread.records) {
      if (r.tag == 0 ||
          std::find(names.begin(), names.end(), r.name) == names.end()) {
        continue;
      }
      out[r.tag] += static_cast<double>(r.end_ns - r.begin_ns) / 1e6;
    }
  }
  return out;
}

void start_tracing() {
  wsn::Timeline& timeline = wsn::Timeline::instance();
  timeline.set_thread_capacity(std::size_t{1} << 18);
  timeline.reset();
  timeline.set_enabled(true);
}

std::vector<wsn::TimelineThreadDump> stop_tracing() {
  wsn::Timeline& timeline = wsn::Timeline::instance();
  timeline.set_enabled(false);
  return timeline.snapshot();
}

}  // namespace meshbench
