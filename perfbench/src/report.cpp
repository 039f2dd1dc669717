#include "report.h"

#include <stdexcept>

#include "common/json.h"

namespace meshbench {

namespace {

constexpr std::string_view kLossyArq = "lossy-arq";
constexpr std::string_view kServiceMix = "service-mix";
constexpr std::string_view kBulk1m = "bulk-1m";

constexpr std::size_t kMaxErrors = 8;

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      kLossyArq, kServiceMix, kBulk1m};
  return names;
}

const std::vector<EndToEndMetric>& end_to_end_metrics() {
  // An op is a scenario job (lossy-arq), a successful plan request
  // (service-mix) or a million-node broadcast (bulk-1m).
  static const std::vector<EndToEndMetric> metrics = {
      {"setup_s", "s"},
      {"ops_per_s", "ops/s"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<LayerMetric>& per_layer_metrics() {
  constexpr std::string_view kCompileMoves = "ops_per_s on lossy-arq";
  constexpr std::string_view kStoreMoves = "ops_per_s on service-mix";
  constexpr std::string_view kSimMoves = "ops_per_s on lossy-arq";
  constexpr std::string_view kBulkMoves = "ops_per_s on bulk-1m";
  constexpr std::string_view kFaultMoves = "ops_per_s on lossy-arq";
  // Workloads that never run a scenario job.
  constexpr std::string_view kNoScenarioJobs = "service-mix, bulk-1m";
  constexpr std::string_view kAuditMoves =
      "ops_per_s on lossy-arq and bulk-1m";
  constexpr std::string_view kScenarioMoves = "ops_per_s on lossy-arq";
  constexpr std::string_view kServiceMoves = "ops_per_s on service-mix";
  constexpr std::string_view kNotService = "lossy-arq, bulk-1m";
  static const std::vector<LayerMetric> metrics = {
      {"topology.build_ms", "ms", "topology", "setup_s on all workloads", "-"},
      {"protocol.compile_ms", "ms", "protocol", kCompileMoves, "service-mix"},
      {"protocol.compiles", "count", "protocol", kCompileMoves, "service-mix"},
      {"protocol.repairs", "count", "protocol", kCompileMoves, "service-mix"},
      {"protocol.etx_plan_ms", "ms", "protocol", "ops_per_s on lossy-arq",
       kNoScenarioJobs},
      {"protocol.implicit_plan_ms", "ms", "protocol", kBulkMoves,
       "lossy-arq, service-mix"},
      {"store.fetch_ms", "ms", "store", kStoreMoves, "bulk-1m"},
      {"store.mem_hits", "count", "store", kStoreMoves, "bulk-1m"},
      {"store.compiles", "count", "store", kStoreMoves, "bulk-1m"},
      {"store.hit_ratio", "ratio", "store", kStoreMoves, "bulk-1m"},
      {"store.lock_wait_ms", "ms", "store", kStoreMoves, "bulk-1m"},
      {"sim.run_ms", "ms", "sim", kSimMoves, kNoScenarioJobs},
      {"sim.runs", "count", "sim", kSimMoves, kNoScenarioJobs},
      {"sim.ns_per_tx", "ns/tx", "sim", kSimMoves, kNoScenarioJobs},
      {"sim.bulk_run_ms", "ms", "sim/bulk", kBulkMoves,
       "lossy-arq, service-mix"},
      {"sim.bulk_slots", "count", "sim/bulk", kBulkMoves,
       "lossy-arq, service-mix"},
      {"sim.bulk_ns_per_node", "ns/node-slot", "sim/bulk", kBulkMoves,
       "lossy-arq, service-mix"},
      {"fault.link_estimate_ms", "ms", "fault", kFaultMoves, kNoScenarioJobs},
      {"fault.arq_ms", "ms", "fault", kFaultMoves, kNoScenarioJobs},
      {"fault.arq_rounds", "count", "fault", kFaultMoves, kNoScenarioJobs},
      {"fault.arq_retries", "count", "fault", kFaultMoves, kNoScenarioJobs},
      {"fault.delivery_ratio", "ratio", "fault", kFaultMoves, kNoScenarioJobs},
      {"audit.ms", "ms", "obs/audit", kAuditMoves, "service-mix"},
      {"audit.checks", "count", "obs/audit", kAuditMoves, "service-mix"},
      {"audit.violations", "count", "obs/audit", kAuditMoves, "service-mix"},
      {"audit.bulk_ms", "ms", "obs/audit", kAuditMoves, "service-mix"},
      {"scenario.expand_ms", "ms", "scenario", kScenarioMoves, kNoScenarioJobs},
      {"scenario.job_ms", "ms", "scenario", kScenarioMoves, kNoScenarioJobs},
      {"scenario.job_self_ms", "ms", "scenario", kScenarioMoves, kNoScenarioJobs},
      {"scenario.emit_stall_share", "ratio", "scenario", kScenarioMoves,
       kNoScenarioJobs},
      {"scenario.queue_wait_ms", "ms", "scenario", kScenarioMoves, kNoScenarioJobs},
      {"scenario.worker_busy_share", "ratio", "scenario", kScenarioMoves,
       kNoScenarioJobs},
      {"service.plan_p50_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.plan_p90_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.admission_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.queue_wait_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.exec_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.emit_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.rpc_overhead_ms", "ms", "service", kServiceMoves, kNotService},
      {"service.sheds", "count", "service", kServiceMoves, kNotService},
      {"service.errors", "count", "service", kServiceMoves, kNotService},
      {"service.workers_busy_share", "ratio", "service", kServiceMoves,
       kNotService},
      {"bench.warmup_s", "s", "benchmark", "-", "-"},
      {"bench.trace_overhead", "ratio", "benchmark", "-", "-"},
  };
  return metrics;
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::string_view unit_of(std::string_view name) {
  for (const EndToEndMetric& m : end_to_end_metrics()) {
    if (m.name == name) return m.unit;
  }
  for (const LayerMetric& m : per_layer_metrics()) {
    if (m.name == name) return m.unit;
  }
  throw std::invalid_argument("metric not in the catalogue: " +
                              std::string(name));
}

void Ledger::fail(std::string why, std::uint64_t n) {
  failed += n;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(why));
}

void Ledger::merge(Ledger other) {
  attempted += other.attempted;
  failed += other.failed;
  for (std::string& why : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(why));
  }
}

void Result::set(std::string_view name, double value) {
  (void)unit_of(name);  // catalogue check
  values_.insert_or_assign(std::string(name), value);
}

void Result::set(std::string_view name, const Percentile& p) {
  set(name, p.value);
  percentiles_.insert_or_assign(std::string(name), p);
}

bool Result::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Result::final_line(const Ledger& ledger, bool correct) const {
  wsn::JsonWriter w;
  w.begin_object()
      .member("correct", correct)
      .member("attempted", ledger.attempted)
      .member("failed", ledger.failed)
      .key("metrics")
      .begin_object();
  for (const auto& [name, value] : values_) {
    w.key(name)
        .begin_object()
        .member("value", value)
        .member("unit", unit_of(name))
        .end_object();
  }
  w.end_object().end_object();
  return std::move(w).str();
}

std::string Result::detail_line(std::string_view workload,
                                std::uint64_t seed, bool trace,
                                const Ledger& ledger) const {
  wsn::JsonWriter w;
  w.begin_object().key("detail").begin_object();
  w.member("workload", workload).member("seed", seed).member("trace", trace);
  w.key("percentiles").begin_object();
  for (const auto& [name, p] : percentiles_) {
    w.key(name)
        .begin_object()
        .member("value", p.value)
        .member("samples", static_cast<std::uint64_t>(p.samples))
        .member("beyond", static_cast<std::uint64_t>(p.beyond))
        .end_object();
  }
  w.end_object();
  if (trace) {
    w.key("layers").begin_array();
    for (const LayerMetric& m : per_layer_metrics()) {
      const auto it = values_.find(m.name);
      if (it == values_.end()) continue;
      w.begin_object()
          .member("name", m.name)
          .member("value", it->second)
          .member("unit", m.unit)
          .member("layer", m.layer)
          .member("moves", m.moves)
          .member("no_change_on", m.no_change)
          .end_object();
    }
    w.end_array();
  }
  w.key("errors").begin_array();
  for (const std::string& e : ledger.errors) w.value(e);
  w.end_array();
  w.end_object().end_object();
  return std::move(w).str();
}

}  // namespace meshbench
