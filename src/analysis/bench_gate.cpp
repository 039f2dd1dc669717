#include "analysis/bench_gate.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace wsn {

namespace {

/// One parsed result row: a key and its numeric fields, split into gated
/// (higher-is-better throughput) and advisory (latency) metrics.
struct EntryMetrics {
  std::string key;
  std::vector<std::pair<std::string, double>> gated;
  std::vector<std::pair<std::string, double>> advisory;
};

constexpr std::string_view kGatedMetrics[] = {
    "runs_per_sec", "cold_jobs_per_sec", "warm_jobs_per_sec",
    "cache_hit_rate"};
constexpr std::string_view kAdvisoryMetrics[] = {
    "mean_ms",
    "p50_ms",
    "p95_ms",
    // Service loadgen tail latency and admission shedding
    // (meshbcast.bench.service): advisory -- both swing with machine
    // load, and a shed is the admission control *working*.
    "p99_ms",
    "shed_rate",
    "queue_wait_ms_mean",
    // Deduped scenario-bench spread (schema v2): the repeat-aware min/max
    // around the gated means.  Advisory only -- spread wobbles hardest on
    // loaded runners.
    "cold_jobs_per_sec_min",
    "cold_jobs_per_sec_max",
    "warm_jobs_per_sec_min",
    "warm_jobs_per_sec_max",
};

std::vector<EntryMetrics> collect_entries(const JsonValue& doc) {
  std::vector<EntryMetrics> out;
  std::map<std::string, std::size_t> key_counts;
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) return out;
  for (const JsonValue& row : results->as_array()) {
    if (!row.is_object()) continue;
    EntryMetrics entry;
    if (const JsonValue* name = row.find("name");
        name != nullptr && name->is_string()) {
      entry.key = name->as_string();
    } else if (const JsonValue* workers = row.find("workers")) {
      std::uint64_t w = 0;
      if (workers->to_u64(w)) {
        entry.key = "workers=" + std::to_string(w);
      }
    }
    if (entry.key.empty()) continue;
    // A bench may legally repeat a key (scenario_throughput re-measures
    // workers=1 after warming); suffix repeats so baseline and current
    // rows pair up positionally per key.
    const std::size_t occurrence = ++key_counts[entry.key];
    if (occurrence > 1) {
      entry.key.push_back('#');
      entry.key.append(std::to_string(occurrence));
    }
    for (const std::string_view metric : kGatedMetrics) {
      if (const JsonValue* v = row.find(metric);
          v != nullptr && v->is_number()) {
        entry.gated.emplace_back(std::string(metric), v->as_number());
      }
    }
    for (const std::string_view metric : kAdvisoryMetrics) {
      if (const JsonValue* v = row.find(metric);
          v != nullptr && v->is_number()) {
        entry.advisory.emplace_back(std::string(metric), v->as_number());
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

const EntryMetrics* find_entry(const std::vector<EntryMetrics>& entries,
                               const std::string& key) {
  for (const EntryMetrics& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

double metric_or(const std::vector<std::pair<std::string, double>>& metrics,
                 const std::string& name, double fallback) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return fallback;
}

}  // namespace

bool is_bench_schema(const JsonValue& doc, std::string& schema) {
  schema = doc.string_or("schema", "");
  return schema == "meshbcast.bench" ||
         schema == "meshbcast.bench.scenario" ||
         schema == "meshbcast.bench.service";
}

GateReport compare_bench_docs(const JsonValue& baseline,
                              const JsonValue& current,
                              const GateOptions& options) {
  GateReport report;
  std::string baseline_schema;
  std::string current_schema;
  if (!is_bench_schema(baseline, baseline_schema)) {
    report.notes.push_back("baseline: unknown schema \"" + baseline_schema +
                           "\"; skipped");
    return report;
  }
  if (!is_bench_schema(current, current_schema)) {
    report.notes.push_back("current: unknown schema \"" + current_schema +
                           "\"; skipped");
    return report;
  }
  if (baseline_schema != current_schema) {
    report.notes.push_back("schema mismatch: baseline " + baseline_schema +
                           " vs current " + current_schema + "; skipped");
    return report;
  }
  report.bench = current.string_or("bench", "");

  const std::vector<EntryMetrics> base_entries = collect_entries(baseline);
  const std::vector<EntryMetrics> cur_entries = collect_entries(current);

  for (const EntryMetrics& base : base_entries) {
    const EntryMetrics* cur = find_entry(cur_entries, base.key);
    if (cur == nullptr) {
      if (options.strict) {
        GateMetric m;
        m.entry = base.key;
        m.metric = "(missing)";
        m.gated = true;
        m.regression = true;
        report.metrics.push_back(std::move(m));
      } else {
        report.notes.push_back("baseline entry \"" + base.key +
                               "\" missing from current run");
      }
      continue;
    }
    for (const auto& [metric, base_value] : base.gated) {
      GateMetric m;
      m.entry = base.key;
      m.metric = metric;
      m.baseline = base_value;
      m.current = metric_or(cur->gated, metric, 0.0);
      m.ratio = base_value > 0.0 ? m.current / base_value : 0.0;
      m.gated = true;
      m.regression =
          base_value > 0.0 && m.current < base_value * (1.0 - options.tolerance);
      report.metrics.push_back(std::move(m));
    }
    for (const auto& [metric, base_value] : base.advisory) {
      GateMetric m;
      m.entry = base.key;
      m.metric = metric;
      m.baseline = base_value;
      m.current = metric_or(cur->advisory, metric, 0.0);
      m.ratio = base_value > 0.0 ? m.current / base_value : 0.0;
      m.gated = false;
      report.metrics.push_back(std::move(m));
    }
  }
  for (const EntryMetrics& cur : cur_entries) {
    if (find_entry(base_entries, cur.key) == nullptr) {
      report.notes.push_back("new entry \"" + cur.key +
                             "\" (no baseline; not gated)");
    }
  }
  return report;
}

GateReport gate_bench_files(const std::string& baseline_path,
                            const std::string& current_path,
                            const GateOptions& options) {
  GateReport report;
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

  JsonValue baseline;
  JsonValue current;
  if (!read_doc(baseline_path, baseline, "baseline")) {
    // No baseline yet: the current run seeds the trajectory.
    return report;
  }
  if (!read_doc(current_path, current, "current")) {
    if (options.strict) {
      GateMetric m;
      m.entry = current_path;
      m.metric = "(missing current)";
      m.gated = true;
      m.regression = true;
      report.metrics.push_back(std::move(m));
    }
    return report;
  }
  GateReport compared = compare_bench_docs(baseline, current, options);
  compared.notes.insert(compared.notes.begin(), report.notes.begin(),
                        report.notes.end());
  return compared;
}

GateReport merge_reports(std::vector<GateReport> reports) {
  GateReport merged;
  for (GateReport& r : reports) {
    if (merged.bench.empty()) {
      merged.bench = r.bench;
    } else if (!r.bench.empty()) {
      merged.bench += "," + r.bench;
    }
    for (GateMetric& m : r.metrics) merged.metrics.push_back(std::move(m));
    for (std::string& n : r.notes) merged.notes.push_back(std::move(n));
  }
  return merged;
}

void write_gate_json(std::ostream& out, const GateReport& report,
                     const GateOptions& options) {
  JsonWriter w;
  w.begin_object()
      .member("schema", "meshbcast.bench.gate")
      .member("version", std::uint64_t{1})
      .member("bench", report.bench)
      .member("tolerance", options.tolerance)
      .member("passed", report.passed())
      .member("regressions", std::uint64_t{report.regressions()});
  w.key("metrics").begin_array();
  for (const GateMetric& m : report.metrics) {
    w.begin_object()
        .member("entry", m.entry)
        .member("metric", m.metric)
        .member("baseline", m.baseline)
        .member("current", m.current)
        .member("ratio", m.ratio)
        .member("gated", m.gated)
        .member("regression", m.regression)
        .end_object();
  }
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : report.notes) w.value(n);
  w.end_array().end_object();
  out << std::move(w).str() << "\n";
}

std::string gate_text(const GateReport& report) {
  std::ostringstream out;
  for (const GateMetric& m : report.metrics) {
    char line[256];
    std::snprintf(line, sizeof line, "%-28s %-20s %12.3f -> %12.3f  x%.3f%s%s\n",
                  m.entry.c_str(), m.metric.c_str(), m.baseline, m.current,
                  m.ratio, m.gated ? "" : "  (advisory)",
                  m.regression ? "  REGRESSION" : "");
    out << line;
  }
  for (const std::string& n : report.notes) out << "note: " << n << "\n";
  out << (report.passed() ? "gate: PASS" : "gate: FAIL") << " ("
      << report.regressions() << " regressions, "
      << report.metrics.size() << " metrics)\n";
  return out.str();
}

}  // namespace wsn
