#include "analysis/bench_doc.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json.h"

namespace wsn {

namespace {

constexpr std::string_view kSchema = "meshbcast.bench";

/// An exact work count (`*_count`): deterministic on any host, so it
/// gates at tolerance 0 in both directions.
bool is_exact_count(std::string_view name) {
  return name.ends_with("_count");
}

int metric_direction(std::string_view name) {
  if (is_exact_count(name)) return 0;
  // Aggregated variants keep their base direction: cold_jobs_per_sec_min
  // is still a throughput, queue_wait_ms_mean still a latency.  Shed
  // counts and rates are requests turned away; a bare `rate` is a run
  // parameter, not a measurement.
  if (name.find("shed") != std::string_view::npos) return -1;
  if (name.find("per_sec") != std::string_view::npos ||
      name.ends_with("_rate")) {
    return 1;
  }
  if (name.find("_ms") != std::string_view::npos ||
      name.find("_ns") != std::string_view::npos) {
    return -1;
  }
  return 0;
}

bool is_gated(std::string_view name) {
  return is_exact_count(name) ||
         (metric_direction(name) > 0 && !name.ends_with("_min") &&
          !name.ends_with("_max"));
}

const BenchRow* find_row(const BenchDoc& doc, const std::string& name) {
  for (const BenchRow& row : doc.rows) {
    if (row.name == name) return &row;
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

DiffMetric one_sided(const std::string& entry, const std::string& metric,
                     std::string_view side) {
  DiffMetric m;
  m.entry = entry;
  m.metric = metric;
  m.direction = metric_direction(metric);
  m.gated = is_gated(metric);
  m.verdict = side;
  return m;
}

}  // namespace

const double* BenchRow::find(std::string_view metric) const noexcept {
  for (const auto& [key, value] : metrics) {
    if (key == metric) return &value;
  }
  return nullptr;
}

bool parse_bench_doc(std::string_view text, BenchDoc& doc,
                     std::string& error) {
  JsonValue json;
  if (!parse_json(text, json, &error)) {
    error = "unparseable: " + error;
    return false;
  }
  const std::string schema = json.string_or("schema", "");
  const double version = json.number_or("version", 0.0);
  if (schema != kSchema || version != 1.0) {
    error = "unknown schema \"" + schema + "\" version " +
            json_number(version) + " (want meshbcast.bench version 1)";
    return false;
  }
  const JsonValue* results = json.find("results");
  if (results == nullptr || !results->is_array()) {
    error = "no results array";
    return false;
  }
  doc = BenchDoc{json.string_or("bench", ""), {}};
  for (const JsonValue& row : results->as_array()) {
    const JsonValue* name = row.find("name");
    if (name == nullptr || !name->is_string()) {
      error = "results[" + std::to_string(doc.rows.size()) +
              "] has no string name";
      return false;
    }
    if (find_row(doc, name->as_string()) != nullptr) {
      error = "duplicate row name \"" + name->as_string() + "\"";
      return false;
    }
    BenchRow& out = doc.rows.emplace_back();
    out.name = name->as_string();
    for (const auto& [member, value] : row.as_object()) {
      if (value.is_number()) {
        out.metrics.emplace_back(member, value.as_number());
      }
    }
  }
  return true;
}

bool write_bench_doc(const std::string& path, const BenchDoc& doc) {
  JsonWriter w;
  w.begin_object()
      .member("schema", kSchema)
      .member("version", std::uint64_t{1})
      .member("bench", doc.bench)
      .key("results")
      .begin_array();
  for (const BenchRow& row : doc.rows) {
    w.begin_object().member("name", row.name);
    for (const auto& [metric, value] : row.metrics) w.member(metric, value);
    w.end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path, std::ios::trunc);
  out << std::move(w).str() << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

std::size_t DiffReport::count(std::string_view verdict) const noexcept {
  std::size_t n = 0;
  for (const DiffMetric& m : metrics) {
    if (m.verdict == verdict) n += 1;
  }
  return n;
}

std::size_t DiffReport::gate_regressions() const noexcept {
  std::size_t n = 0;
  for (const DiffMetric& m : metrics) {
    if (m.fails_gate()) n += 1;
  }
  return n;
}

DiffReport diff_bench_docs(const BenchDoc& a, const BenchDoc& b,
                           const DiffOptions& options) {
  DiffReport report;
  for (const BenchRow& row_a : a.rows) {
    const BenchRow* row_b = find_row(b, row_a.name);
    if (row_b == nullptr) {
      report.metrics.push_back(one_sided(row_a.name, "(entry)", "only-a"));
      continue;
    }
    for (const auto& [name, value_a] : row_a.metrics) {
      DiffMetric m = one_sided(row_a.name, name, "only-a");
      m.a = value_a;
      if (const double* value_b = row_b->find(name)) {
        m.b = *value_b;
        m.ratio = value_a != 0.0 ? *value_b / value_a : 0.0;
        m.verdict = verdict_for(value_a, *value_b, m.direction,
                                options.tolerance);
      }
      report.metrics.push_back(std::move(m));
    }
    for (const auto& [name, value_b] : row_b->metrics) {
      if (row_a.find(name) != nullptr) continue;
      DiffMetric m = one_sided(row_a.name, name, "only-b");
      m.b = value_b;
      report.metrics.push_back(std::move(m));
    }
  }
  for (const BenchRow& row_b : b.rows) {
    if (find_row(a, row_b.name) == nullptr) {
      report.metrics.push_back(one_sided(row_b.name, "(entry)", "only-b"));
    }
  }
  return report;
}

DiffReport diff_bench_files(const std::string& path_a,
                            const std::string& path_b,
                            const DiffOptions& options) {
  DiffReport report;
  const auto read = [&report](const std::string& path, BenchDoc& doc) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!parse_bench_doc(buffer.str(), doc, error)) {
      report.failures.push_back(path + ": " + error);
      return false;
    }
    return true;
  };

  BenchDoc a;
  BenchDoc b;
  if (!std::filesystem::exists(path_a)) {
    // No baseline yet: the current run seeds the trajectory.
    report.notes.push_back("no baseline " + path_a + "; " + path_b +
                           " seeds the trajectory");
    if (std::filesystem::exists(path_b)) (void)read(path_b, b);
    return report;
  }
  if (!std::filesystem::exists(path_b)) {
    report.failures.push_back(path_b + ": missing, but baseline " + path_a +
                              " is committed");
    return report;
  }
  const bool ok_a = read(path_a, a);
  const bool ok_b = read(path_b, b);
  if (!ok_a || !ok_b) return report;
  report = diff_bench_docs(a, b, options);
  const std::string file = std::filesystem::path(path_a).filename().string();
  for (DiffMetric& m : report.metrics) m.file = file;
  return report;
}

DiffReport diff_bench_dirs(const std::string& dir_a, const std::string& dir_b,
                           const DiffOptions& options) {
  std::set<std::string> names;
  for (const std::string& dir : {dir_a, dir_b}) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("BENCH_") && name.ends_with(".json")) {
        names.insert(name);
      }
    }
  }
  DiffReport merged;
  if (names.empty()) {
    merged.failures.push_back("no BENCH_*.json in " + dir_a + " or " +
                              dir_b);
  }
  for (const std::string& name : names) {
    DiffReport r =
        diff_bench_files((std::filesystem::path(dir_a) / name).string(),
                         (std::filesystem::path(dir_b) / name).string(),
                         options);
    for (DiffMetric& m : r.metrics) merged.metrics.push_back(std::move(m));
    for (std::string& f : r.failures) merged.failures.push_back(std::move(f));
    for (std::string& n : r.notes) merged.notes.push_back(std::move(n));
  }
  return merged;
}

void write_diff_json(std::ostream& out, const DiffReport& report,
                     const DiffOptions& options) {
  JsonWriter w;
  w.begin_object()
      .member("schema", "meshbcast.bench.diff")
      .member("version", std::uint64_t{2})
      .member("tolerance", options.tolerance)
      .member("passed", report.passed())
      .member("gate_regressions", std::uint64_t{report.gate_regressions()})
      .member("improved", std::uint64_t{report.improved()})
      .member("regressed", std::uint64_t{report.regressed()});
  w.key("metrics").begin_array();
  for (const DiffMetric& m : report.metrics) {
    w.begin_object()
        .member("file", m.file)
        .member("entry", m.entry)
        .member("metric", m.metric)
        .member("a", m.a)
        .member("b", m.b)
        .member("ratio", m.ratio)
        .member("direction", std::int64_t{m.direction})
        .member("gated", m.gated)
        .member("verdict", m.verdict)
        .end_object();
  }
  w.end_array();
  w.key("failures").begin_array();
  for (const std::string& f : report.failures) w.value(f);
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : report.notes) w.value(n);
  w.end_array().end_object();
  out << std::move(w).str() << "\n";
}

std::string diff_text(const DiffReport& report) {
  std::ostringstream out;
  const std::string* file = nullptr;
  for (const DiffMetric& m : report.metrics) {
    if (file == nullptr || *file != m.file) {
      file = &m.file;
      if (!file->empty()) out << "== " << *file << " ==\n";
    }
    char line[256];
    const char* arrow = m.direction > 0 ? "^" : m.direction < 0 ? "v" : "-";
    std::snprintf(line, sizeof line,
                  "%-28s %-24s %12.3f -> %12.3f  x%.3f %s %s%s%s\n",
                  m.entry.c_str(), m.metric.c_str(), m.a, m.b, m.ratio,
                  arrow, m.verdict.c_str(), m.gated ? " (gated)" : "",
                  m.fails_gate() ? "  REGRESSION" : "");
    out << line;
  }
  for (const std::string& f : report.failures) out << "FAIL: " << f << "\n";
  for (const std::string& n : report.notes) out << "note: " << n << "\n";
  out << "gate: " << (report.passed() ? "PASS" : "FAIL") << " ("
      << report.gate_regressions() << " gated regressions, "
      << report.failures.size() << " failures); " << report.improved()
      << " improved, " << report.regressed() << " regressed, "
      << report.count("equal") << " equal, " << report.count("changed")
      << " changed (" << report.metrics.size() << " metrics)\n";
  return out.str();
}

}  // namespace wsn
