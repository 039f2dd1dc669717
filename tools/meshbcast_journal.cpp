// meshbcast_journal: offline query CLI for WSNJRNL1 request journals.
//
//   meshbcast_journal --journal requests.wsnj --summary
//   meshbcast_journal --journal requests.wsnj --limit 20 --method plan
//   meshbcast_journal --journal requests.wsnj --min-ms 50 --outcome ok
//   meshbcast_journal --journal requests.wsnj --check
//   meshbcast_journal --journal requests.wsnj --verify-loadgen summary.json
//
// Modes (first match wins):
//   --check            validate the header and every record checksum;
//                      fails (exit 1) on a foreign file or a torn tail.
//                      A daemon restart truncates the tail first, so a
//                      post-restart --check passing is the crash-recovery
//                      acceptance gate.
//   --verify-loadgen F diff the journal against the client-side
//                      `meshbcast.loadgen` summary written by
//                      loadgen --summary-out: per-method ok/shed/error
//                      counts must match exactly (sheds included).
//   --summary          per-method x per-outcome counts plus latency
//                      percentiles over the served records.
//   (default)          list matching records, oldest first.
//
// Filters (listing and --summary): --method plan|simulate|scenario,
// --outcome ok|error|shed, --min-ms/--max-ms on total_ms, --limit N
// (listing only, 0 = all).
//
// Exit codes: 0 success, 1 check/verify failure, 2 usage error.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "service/journal.h"

namespace {

using namespace wsn;

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct Filter {
  bool has_method = false;
  JournalMethod method = JournalMethod::kPlan;
  bool has_outcome = false;
  JournalOutcome outcome = JournalOutcome::kOk;
  double min_ms = 0.0;
  double max_ms = 0.0;  // 0 = no upper bound

  [[nodiscard]] bool matches(const JournalRecord& r) const {
    if (has_method && r.method != method) return false;
    if (has_outcome && r.outcome != outcome) return false;
    if (r.total_ms < min_ms) return false;
    if (max_ms > 0.0 && r.total_ms > max_ms) return false;
    return true;
  }
};

/// Client-observed counts for one journal method, summed over the
/// loadgen phases that exercise it (warm_plan + cold_plan both land
/// under "plan" server-side).
struct ClientCounts {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t sheds = 0;
  std::uint64_t errors = 0;
};

int run_check(const std::string& path) {
  JournalReadResult result;
  std::string error;
  if (!read_journal_file(path, result, error)) {
    std::fprintf(stderr, "meshbcast_journal: %s\n", error.c_str());
    return 1;
  }
  if (result.torn_bytes != 0) {
    std::fprintf(stderr,
                 "meshbcast_journal: FAIL %s: %" PRIu64
                 " torn trailing byte(s) after %zu valid record(s)\n",
                 path.c_str(), result.torn_bytes, result.records.size());
    return 1;
  }
  std::uint64_t max_seq = 0;
  for (const JournalRecord& r : result.records)
    max_seq = std::max(max_seq, r.seq);
  std::printf("OK %s: %zu record(s), max_seq=%" PRIu64 ", no torn tail\n",
              path.c_str(), result.records.size(), max_seq);
  return 0;
}

int run_summary(const std::vector<JournalRecord>& records) {
  // method -> [ok, error, shed]
  std::map<std::string, std::array<std::uint64_t, 3>> by_method;
  std::vector<double> served_ms;
  for (const JournalRecord& r : records) {
    auto& row = by_method[std::string(to_string(r.method))];
    row[static_cast<std::size_t>(r.outcome)] += 1;
    if (r.outcome == JournalOutcome::kOk) served_ms.push_back(r.total_ms);
  }
  std::printf("%zu record(s)\n", records.size());
  std::printf("%-10s %8s %8s %8s\n", "method", "ok", "error", "shed");
  for (const auto& [method, row] : by_method) {
    std::printf("%-10s %8" PRIu64 " %8" PRIu64 " %8" PRIu64 "\n",
                method.c_str(), row[0], row[1], row[2]);
  }
  std::sort(served_ms.begin(), served_ms.end());
  std::printf("served latency: p50=%.3fms p95=%.3fms p99=%.3fms "
              "(over %zu served)\n",
              percentile_sorted(served_ms, 0.50),
              percentile_sorted(served_ms, 0.95),
              percentile_sorted(served_ms, 0.99), served_ms.size());
  return 0;
}

int run_list(const std::vector<JournalRecord>& records, std::uint64_t limit) {
  std::printf("%8s %10s %-10s %-6s %10s %9s %9s %9s  %s\n", "seq",
              "client_id", "method", "out", "total_ms", "queue_ms",
              "exec_ms", "emit_ms", "fingerprint");
  std::uint64_t shown = 0;
  for (const JournalRecord& r : records) {
    if (limit != 0 && shown >= limit) break;
    ++shown;
    std::printf("%8" PRIu64 " %10" PRIu64 " %-10s %-6s %10.3f %9.3f "
                "%9.3f %9.3f  %016" PRIx64 "%016" PRIx64 "%s\n",
                r.seq, r.client_id,
                std::string(to_string(r.method)).c_str(),
                std::string(to_string(r.outcome)).c_str(), r.total_ms,
                r.queue_ms, r.exec_ms, r.emit_ms, r.fp_hi, r.fp_lo,
                (r.flags & kJournalDrainRefused) != 0 ? " [drain]" : "");
  }
  std::printf("%" PRIu64 " of %zu record(s) shown\n", shown, records.size());
  return 0;
}

int run_verify(const std::vector<JournalRecord>& records,
               const std::string& summary_path) {
  std::ifstream file(summary_path);
  if (!file) {
    std::fprintf(stderr, "meshbcast_journal: cannot read %s\n",
                 summary_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  JsonValue doc;
  std::string error;
  if (!parse_json(buffer.str(), doc, &error)) {
    std::fprintf(stderr, "meshbcast_journal: %s: %s\n", summary_path.c_str(),
                 error.c_str());
    return 2;
  }
  if (doc.string_or("schema", "") != "meshbcast.loadgen") {
    std::fprintf(stderr,
                 "meshbcast_journal: %s is not a meshbcast.loadgen summary\n",
                 summary_path.c_str());
    return 2;
  }
  const JsonValue* phases = doc.find("phases");
  if (phases == nullptr) {
    std::fprintf(stderr, "meshbcast_journal: %s has no phases array\n",
                 summary_path.c_str());
    return 2;
  }

  std::map<std::string, ClientCounts> client;
  for (const JsonValue& phase : phases->as_array()) {
    ClientCounts& c = client[phase.string_or("method", "plan")];
    c.requests += static_cast<std::uint64_t>(phase.number_or("requests", 0));
    c.ok += static_cast<std::uint64_t>(phase.number_or("ok", 0));
    c.sheds += static_cast<std::uint64_t>(phase.number_or("sheds", 0));
    c.errors += static_cast<std::uint64_t>(phase.number_or("errors", 0));
  }

  std::map<std::string, ClientCounts> server;
  for (const JournalRecord& r : records) {
    ClientCounts& s = server[std::string(to_string(r.method))];
    s.requests += 1;
    switch (r.outcome) {
      case JournalOutcome::kOk: s.ok += 1; break;
      case JournalOutcome::kShed: s.sheds += 1; break;
      case JournalOutcome::kError: s.errors += 1; break;
    }
  }

  bool ok = true;
  const auto check = [&ok](const std::string& method, const char* field,
                           std::uint64_t journal, std::uint64_t loadgen) {
    if (journal == loadgen) return;
    ok = false;
    std::fprintf(stderr,
                 "meshbcast_journal: MISMATCH %s.%s: journal=%" PRIu64
                 " loadgen=%" PRIu64 "\n",
                 method.c_str(), field, journal, loadgen);
  };
  for (const auto& [method, c] : client) {
    const ClientCounts s = server.count(method) != 0 ? server[method]
                                                     : ClientCounts{};
    check(method, "requests", s.requests, c.requests);
    check(method, "ok", s.ok, c.ok);
    check(method, "sheds", s.sheds, c.sheds);
    check(method, "errors", s.errors, c.errors);
  }
  for (const auto& [method, s] : server) {
    if (client.count(method) == 0 && s.requests != 0) {
      ok = false;
      std::fprintf(stderr,
                   "meshbcast_journal: MISMATCH %s: journal has %" PRIu64
                   " record(s) the loadgen summary never sent\n",
                   method.c_str(), s.requests);
    }
  }
  if (!ok) return 1;
  std::uint64_t total = 0;
  for (const auto& [method, c] : client) total += c.requests;
  std::printf("VERIFIED %s against journal: %" PRIu64
              " request(s) across %zu method(s) match exactly\n",
              summary_path.c_str(), total, client.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsn;

  CliParser cli("meshbcast_journal", "WSNJRNL1 request-journal query tool",
                2);
  cli.add_option("journal", "journal file to read", "");
  cli.add_option("method", "filter: plan | simulate | scenario", "");
  cli.add_option("outcome", "filter: ok | error | shed", "");
  cli.add_option("min-ms", "filter: total_ms at least this", "0");
  cli.add_option("max-ms", "filter: total_ms at most this (0 = no cap)",
                 "0");
  cli.add_option("limit", "listing: show at most N records (0 = all)", "0");
  cli.add_option("verify-loadgen",
                 "diff against a loadgen --summary-out file", "");
  cli.add_flag("check", "validate header and checksums, fail on torn tail");
  cli.add_flag("summary", "per-method outcome counts and percentiles");
  if (!cli.parse(argc, argv)) return 2;

  const std::string path = cli.get("journal");
  if (path.empty()) {
    std::fprintf(stderr, "meshbcast_journal: --journal is required\n");
    return 2;
  }

  Filter filter;
  const std::string method_text = cli.get("method");
  if (!method_text.empty()) {
    if (!parse_journal_method(method_text, filter.method)) {
      std::fprintf(stderr, "meshbcast_journal: bad --method %s\n",
                   method_text.c_str());
      return 2;
    }
    filter.has_method = true;
  }
  const std::string outcome_text = cli.get("outcome");
  if (!outcome_text.empty()) {
    if (!parse_journal_outcome(outcome_text, filter.outcome)) {
      std::fprintf(stderr, "meshbcast_journal: bad --outcome %s\n",
                   outcome_text.c_str());
      return 2;
    }
    filter.has_outcome = true;
  }
  filter.min_ms = cli.get_f64("min-ms");
  filter.max_ms = cli.get_f64("max-ms");

  if (cli.get_flag("check")) return run_check(path);

  JournalReadResult result;
  std::string error;
  if (!read_journal_file(path, result, error)) {
    std::fprintf(stderr, "meshbcast_journal: %s\n", error.c_str());
    return 1;
  }
  if (result.torn_bytes != 0) {
    std::fprintf(stderr,
                 "meshbcast_journal: warning: ignoring %" PRIu64
                 " torn trailing byte(s)\n",
                 result.torn_bytes);
  }
  std::vector<JournalRecord> records;
  records.reserve(result.records.size());
  for (const JournalRecord& r : result.records)
    if (filter.matches(r)) records.push_back(r);

  const std::string verify_path = cli.get("verify-loadgen");
  if (!verify_path.empty()) return run_verify(records, verify_path);
  if (cli.get_flag("summary")) return run_summary(records);
  return run_list(records, cli.get_u64("limit"));
}
