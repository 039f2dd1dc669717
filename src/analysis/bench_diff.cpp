#include "analysis/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/bench_gate.h"

namespace wsn {

namespace {

/// One result row: its key and every numeric member, in document order.
struct EntryRow {
  std::string key;
  std::vector<std::pair<std::string, double>> metrics;
};

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

int metric_direction(std::string_view name) {
  // Aggregated variants keep their base direction: cold_jobs_per_sec_min
  // is still a throughput, queue_wait_ms_mean still a latency.  The
  // service bench's shed_rate counts requests turned away.
  if (name.find("shed") != std::string_view::npos) return -1;
  if (name.find("per_sec") != std::string_view::npos ||
      ends_with(name, "rate")) {
    return 1;
  }
  if (name.find("_ms") != std::string_view::npos ||
      name.find("_ns") != std::string_view::npos) {
    return -1;
  }
  return 0;
}

/// Same keying as the bench gate: `name`, else `workers=N`, repeats
/// suffixed `#2`, `#3`, ... so both sides pair up positionally per key.
std::vector<EntryRow> collect_rows(const JsonValue& doc) {
  std::vector<EntryRow> out;
  std::map<std::string, std::size_t> key_counts;
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) return out;
  for (const JsonValue& row : results->as_array()) {
    if (!row.is_object()) continue;
    EntryRow entry;
    if (const JsonValue* name = row.find("name");
        name != nullptr && name->is_string()) {
      entry.key = name->as_string();
    } else if (const JsonValue* workers = row.find("workers")) {
      std::uint64_t w = 0;
      if (workers->to_u64(w)) entry.key = "workers=" + std::to_string(w);
    }
    if (entry.key.empty()) continue;
    const std::size_t occurrence = ++key_counts[entry.key];
    if (occurrence > 1) {
      entry.key.push_back('#');
      entry.key.append(std::to_string(occurrence));
    }
    for (const auto& [member, value] : row.as_object()) {
      if (value.is_number()) {
        entry.metrics.emplace_back(member, value.as_number());
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

const EntryRow* find_row(const std::vector<EntryRow>& rows,
                         const std::string& key) {
  for (const EntryRow& r : rows) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

const double* find_metric(const EntryRow& row, const std::string& name) {
  for (const auto& [key, value] : row.metrics) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string verdict_for(double a, double b, int direction,
                        double tolerance) {
  if (a == b) return "equal";
  if (direction == 0) return "changed";
  if (a == 0.0) {
    return (b > 0.0) == (direction > 0) ? "improved" : "regressed";
  }
  const double ratio = b / a;
  if (std::fabs(ratio - 1.0) <= tolerance) return "equal";
  const bool better = direction > 0 ? ratio > 1.0 : ratio < 1.0;
  return better ? "improved" : "regressed";
}

}  // namespace

DiffReport diff_bench_docs(const JsonValue& a, const JsonValue& b,
                           const DiffOptions& options) {
  DiffReport report;
  std::string schema_a;
  std::string schema_b;
  if (!is_bench_schema(a, schema_a)) {
    report.notes.push_back("a: unknown schema \"" + schema_a + "\"; skipped");
    return report;
  }
  if (!is_bench_schema(b, schema_b)) {
    report.notes.push_back("b: unknown schema \"" + schema_b + "\"; skipped");
    return report;
  }
  if (schema_a != schema_b) {
    report.notes.push_back("schema mismatch: " + schema_a + " vs " +
                           schema_b + "; skipped");
    return report;
  }
  report.bench_a = a.string_or("bench", "");
  report.bench_b = b.string_or("bench", "");

  const std::vector<EntryRow> rows_a = collect_rows(a);
  const std::vector<EntryRow> rows_b = collect_rows(b);

  for (const EntryRow& row_a : rows_a) {
    const EntryRow* row_b = find_row(rows_b, row_a.key);
    if (row_b == nullptr) {
      DiffMetric m;
      m.entry = row_a.key;
      m.metric = "(entry)";
      m.verdict = "only-a";
      report.metrics.push_back(std::move(m));
      continue;
    }
    for (const auto& [name, value_a] : row_a.metrics) {
      DiffMetric m;
      m.entry = row_a.key;
      m.metric = name;
      m.a = value_a;
      m.direction = metric_direction(name);
      const double* value_b = find_metric(*row_b, name);
      if (value_b == nullptr) {
        m.verdict = "only-a";
      } else {
        m.b = *value_b;
        m.ratio = value_a != 0.0 ? *value_b / value_a : 0.0;
        m.verdict = verdict_for(value_a, *value_b, m.direction,
                                options.tolerance);
      }
      report.metrics.push_back(std::move(m));
    }
    for (const auto& [name, value_b] : row_b->metrics) {
      if (find_metric(row_a, name) != nullptr) continue;
      DiffMetric m;
      m.entry = row_a.key;
      m.metric = name;
      m.b = value_b;
      m.direction = metric_direction(name);
      m.verdict = "only-b";
      report.metrics.push_back(std::move(m));
    }
  }
  for (const EntryRow& row_b : rows_b) {
    if (find_row(rows_a, row_b.key) != nullptr) continue;
    DiffMetric m;
    m.entry = row_b.key;
    m.metric = "(entry)";
    m.verdict = "only-b";
    report.metrics.push_back(std::move(m));
  }
  return report;
}

DiffReport diff_bench_files(const std::string& path_a,
                            const std::string& path_b,
                            const DiffOptions& options) {
  DiffReport report;
  const auto read_doc = [&report](const std::string& path, JsonValue& doc,
                                  std::string_view role) {
    if (!std::filesystem::exists(path)) {
      report.notes.push_back(std::string(role) + " " + path +
                             " does not exist");
      return false;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!parse_json(buffer.str(), doc, &error)) {
      report.notes.push_back(std::string(role) + " " + path +
                             " unparseable: " + error);
      return false;
    }
    return true;
  };

  JsonValue a;
  JsonValue b;
  const bool ok_a = read_doc(path_a, a, "a");
  const bool ok_b = read_doc(path_b, b, "b");
  if (!ok_a || !ok_b) return report;
  DiffReport diffed = diff_bench_docs(a, b, options);
  diffed.notes.insert(diffed.notes.begin(), report.notes.begin(),
                      report.notes.end());
  return diffed;
}

void write_diff_json(std::ostream& out, const DiffReport& report,
                     const DiffOptions& options) {
  JsonWriter w;
  w.begin_object()
      .member("schema", "meshbcast.bench.diff")
      .member("version", std::uint64_t{1})
      .member("bench_a", report.bench_a)
      .member("bench_b", report.bench_b)
      .member("tolerance", options.tolerance)
      .member("improved", std::uint64_t{report.improved()})
      .member("regressed", std::uint64_t{report.regressed()});
  w.key("metrics").begin_array();
  for (const DiffMetric& m : report.metrics) {
    w.begin_object()
        .member("entry", m.entry)
        .member("metric", m.metric)
        .member("a", m.a)
        .member("b", m.b)
        .member("ratio", m.ratio)
        .member("direction", std::int64_t{m.direction})
        .member("verdict", m.verdict)
        .end_object();
  }
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : report.notes) w.value(n);
  w.end_array().end_object();
  out << std::move(w).str() << "\n";
}

std::string diff_text(const DiffReport& report) {
  std::ostringstream out;
  for (const DiffMetric& m : report.metrics) {
    char line[256];
    const char* arrow = m.direction > 0 ? "^" : m.direction < 0 ? "v" : "-";
    std::snprintf(line, sizeof line,
                  "%-28s %-24s %12.3f -> %12.3f  x%.3f %s %s\n",
                  m.entry.c_str(), m.metric.c_str(), m.a, m.b, m.ratio,
                  arrow, m.verdict.c_str());
    out << line;
  }
  for (const std::string& n : report.notes) out << "note: " << n << "\n";
  out << "diff: " << report.improved() << " improved, "
      << report.regressed() << " regressed, " << report.count("equal")
      << " equal, " << report.count("changed") << " changed ("
      << report.metrics.size() << " metrics)\n";
  return out.str();
}

}  // namespace wsn
