// loadgen: multi-connection load generator for meshbcastd.
//
//   meshbcastd --port 0 &                     # scrape the printed address
//   loadgen --address tcp:127.0.0.1:34787
//           --connections 4 --requests 2000 --json-out BENCH_service.json
//
// Drives three phases over C concurrent connections and reports each as
// a row in a `meshbcast.bench` document (analysis/bench_doc.h):
//
//   warm_plan  every request asks for the SAME plan fingerprint -- one
//              compile, then pure memory-tier hits (the cache fast path);
//   cold_plan  requests cycle the source id, so every request is a
//              distinct fingerprint (compile-dominated);
//   simulate   one-job simulate requests over the now-warm plan.
//
// Arrival is closed-loop by default (each connection fires as fast as
// responses return); `--rate R` switches to open-loop with a global
// target of R requests/second, which is how the shed path is exercised:
// outrun the queue and count the structured `overloaded` errors.
// `runs_per_sec` gates in bench_diff; latency percentiles, `shed_rate` and
// the run parameters (`connections`, `rate`) ride along ungated.
//
// After each phase one `meshbcast.loadgen` v1 JSON line is printed to
// stdout -- the client-observed view (sent/ok/shed/error counts and
// latency percentiles) that meshbcast_journal --verify-loadgen diffs
// against the server's journal.  --summary-out writes the same phases
// into one JSON document for scripting.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bench_doc.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/string_util.h"
#include "service/client.h"
#include "service/rpc.h"

namespace {

using namespace wsn;

struct PhaseStats {
  std::uint64_t ok = 0;
  std::uint64_t sheds = 0;
  std::uint64_t errors = 0;
  double elapsed_s = 0.0;
  std::vector<double> latencies_ms;  // ok responses only

  [[nodiscard]] double percentile(double q) const {
    if (latencies_ms.empty()) return 0.0;
    const double pos =
        q * static_cast<double>(latencies_ms.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, latencies_ms.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return latencies_ms[lo] * (1.0 - frac) + latencies_ms[hi] * frac;
  }
  [[nodiscard]] double mean() const {
    if (latencies_ms.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : latencies_ms) sum += v;
    return sum / static_cast<double>(latencies_ms.size());
  }
};

struct Workload {
  std::string name;
  /// Renders request k's payload.
  std::function<std::string(std::uint64_t k)> request;
};

/// Runs `requests` calls split over `connections` concurrent clients.
/// `rate` > 0 paces arrivals open-loop (request k is due at k/rate
/// seconds); 0 is closed-loop.
bool run_phase(const std::string& address, std::size_t connections,
               std::uint64_t requests, double rate,
               const Workload& workload, PhaseStats& stats,
               std::string& error) {
  std::vector<RpcClient> clients(connections);
  for (RpcClient& client : clients) {
    if (!client.connect(address, error)) return false;
  }
  std::vector<PhaseStats> per_thread(connections);
  std::atomic<bool> failed{false};
  std::string failure;
  std::mutex failure_mutex;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      PhaseStats& mine = per_thread[t];
      for (std::uint64_t k = t; k < requests;
           k += static_cast<std::uint64_t>(connections)) {
        if (failed.load(std::memory_order_relaxed)) return;
        if (rate > 0.0) {
          const auto due =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k) / rate));
          std::this_thread::sleep_until(due);
        }
        const std::string request = workload.request(k);
        const auto sent = std::chrono::steady_clock::now();
        JsonValue response;
        std::string call_error;
        if (!clients[t].call_json(request, response, call_error)) {
          failed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(failure_mutex);
          failure = workload.name + ": " + call_error;
          return;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent)
                .count();
        const std::string kind = response.string_or("type", "");
        if (kind == "response") {
          mine.ok++;
          mine.latencies_ms.push_back(ms);
        } else {
          const JsonValue* err = response.find("error");
          const std::string code =
              err != nullptr ? err->string_or("code", "") : "";
          if (code == "overloaded") {
            mine.sheds++;
          } else {
            mine.errors++;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stats.elapsed_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (failed.load(std::memory_order_relaxed)) {
    error = failure;
    return false;
  }
  for (PhaseStats& mine : per_thread) {
    stats.ok += mine.ok;
    stats.sheds += mine.sheds;
    stats.errors += mine.errors;
    stats.latencies_ms.insert(stats.latencies_ms.end(),
                              mine.latencies_ms.begin(),
                              mine.latencies_ms.end());
  }
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  return true;
}

/// The journal method the phase's requests land under server-side.
std::string_view method_for_phase(std::string_view phase) {
  return phase == "simulate" ? "simulate" : "plan";
}

/// One `meshbcast.loadgen` v1 phase object: the client-side view of a
/// phase, keyed the way the journal verifier wants it.
std::string phase_summary_json(const std::string& name,
                               const PhaseStats& stats) {
  const std::uint64_t total = stats.ok + stats.sheds + stats.errors;
  JsonWriter w;
  w.begin_object()
      .member("schema", "meshbcast.loadgen")
      .member("version", std::uint64_t{1})
      .member("phase", name)
      .member("method", method_for_phase(name))
      .member("requests", total)
      .member("ok", stats.ok)
      .member("sheds", stats.sheds)
      .member("errors", stats.errors)
      .member("elapsed_s", stats.elapsed_s)
      .member("runs_per_sec",
              stats.elapsed_s > 0.0
                  ? static_cast<double>(stats.ok) / stats.elapsed_s
                  : 0.0)
      .member("p50_ms", stats.percentile(0.50))
      .member("p95_ms", stats.percentile(0.95))
      .member("p99_ms", stats.percentile(0.99))
      .end_object();
  return std::move(w).str();
}

/// One meshbcast.bench row per phase; the run parameters ride along.
BenchRow bench_row(const std::string& name, const PhaseStats& stats,
                   std::size_t connections, double rate) {
  const std::uint64_t total = stats.ok + stats.sheds + stats.errors;
  return {name,
          {{"connections", static_cast<double>(connections)},
           {"rate", rate},
           {"requests", static_cast<double>(total)},
           {"ok", static_cast<double>(stats.ok)},
           {"sheds", static_cast<double>(stats.sheds)},
           {"errors", static_cast<double>(stats.errors)},
           {"elapsed_s", stats.elapsed_s},
           {"runs_per_sec",
            stats.elapsed_s > 0.0
                ? static_cast<double>(stats.ok) / stats.elapsed_s
                : 0.0},
           {"shed_rate", total > 0 ? static_cast<double>(stats.sheds) /
                                         static_cast<double>(total)
                                   : 0.0},
           {"mean_ms", stats.mean()},
           {"p50_ms", stats.percentile(0.50)},
           {"p95_ms", stats.percentile(0.95)},
           {"p99_ms", stats.percentile(0.99)}}};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("loadgen", "load generator and bench for meshbcastd", 2);
  cli.add_option("address",
                 "service address (tcp:<host>:<port> or unix:<path>)", "");
  cli.add_option("connections", "concurrent client connections", "4");
  cli.add_option("requests", "requests per plan phase", "2000");
  cli.add_option("sim-requests", "requests in the simulate phase", "200");
  cli.add_option("rate",
                 "open-loop arrival rate, requests/second (0 = closed-loop)",
                 "0");
  cli.add_option("family", "topology family for the workload", "2D-4");
  cli.add_option("dims", "topology dims as MxN", "32x16");
  cli.add_option("phases",
                 "comma list from {warm,cold,sim}", "warm,cold,sim");
  cli.add_option("json-out", "write the meshbcast.bench JSON here ('' = "
                             "skip)", "BENCH_service.json");
  cli.add_option("summary-out",
                 "write the meshbcast.loadgen phase summaries here"
                 " ('' = skip)", "");
  cli.add_flag("shutdown", "send a shutdown RPC when done");
  if (!cli.parse(argc, argv)) return 2;

  const std::string address = cli.get("address");
  if (address.empty()) {
    std::fprintf(stderr, "loadgen: --address is required\n");
    return 2;
  }
  const std::size_t connections =
      std::max<std::size_t>(1, cli.get_u64("connections"));
  const std::uint64_t requests = cli.get_u64("requests");
  const std::uint64_t sim_requests = cli.get_u64("sim-requests");
  const double rate = cli.get_f64("rate");
  const std::string family = cli.get("family");
  const std::vector<std::string> dims_parts = split(cli.get("dims"), 'x');
  std::uint64_t dim_m = 0, dim_n = 0;
  if (dims_parts.size() != 2 || !parse_u64(dims_parts[0], dim_m) ||
      !parse_u64(dims_parts[1], dim_n) || dim_m == 0 || dim_n == 0) {
    std::fprintf(stderr, "loadgen: --dims must look like 32x16\n");
    return 2;
  }
  const std::uint64_t nodes = dim_m * dim_n;
  std::string dims_json = "[";
  dims_json += std::to_string(dim_m);
  dims_json += ',';
  dims_json += std::to_string(dim_n);
  dims_json += ']';

  const auto plan_request = [&](std::uint64_t source) {
    JsonWriter w;
    w.begin_object()
        .member("type", "plan")
        .member("id", source)
        .member("family", family)
        .key("dims")
        .raw(dims_json)
        .member("source", source % nodes)
        .end_object();
    return std::move(w).str();
  };
  const Workload workloads[] = {
      {"warm_plan", [&](std::uint64_t) { return plan_request(0); }},
      {"cold_plan", [&](std::uint64_t k) { return plan_request(k); }},
      {"simulate",
       [&](std::uint64_t k) {
         JsonWriter w;
         w.begin_object()
             .member("type", "simulate")
             .member("id", k)
             .member("name", "loadgen")
             .member("family", family)
             .key("dims")
             .raw(dims_json)
             .key("sources")
             .raw("[0]")
             .key("protocols")
             .raw("[\"paper\"]")
             .end_object();
         return std::move(w).str();
       }},
  };

  const std::string phases = cli.get("phases");
  const auto phase_on = [&](std::string_view name) {
    for (const std::string& part : split(phases, ',')) {
      if (trim(part) == name) return true;
    }
    return false;
  };

  std::vector<std::string> phase_summaries;
  BenchDoc doc{"service_loadgen", {}};
  for (const Workload& workload : workloads) {
    const bool warm = workload.name == "warm_plan";
    const bool cold = workload.name == "cold_plan";
    if (warm && !phase_on("warm")) continue;
    if (cold && !phase_on("cold")) continue;
    if (!warm && !cold && !phase_on("sim")) continue;
    const std::uint64_t n = workload.name == "simulate" ? sim_requests
                                                        : requests;
    PhaseStats stats;
    std::string error;
    if (!run_phase(address, connections, n, rate, workload, stats, error)) {
      std::fprintf(stderr, "loadgen: %s\n", error.c_str());
      return 1;
    }
    std::printf(
        "%-10s ok=%llu sheds=%llu errors=%llu  %.1f req/s  "
        "p50=%.3fms p95=%.3fms p99=%.3fms\n",
        workload.name.c_str(), static_cast<unsigned long long>(stats.ok),
        static_cast<unsigned long long>(stats.sheds),
        static_cast<unsigned long long>(stats.errors),
        stats.elapsed_s > 0.0 ? static_cast<double>(stats.ok) /
                                    stats.elapsed_s
                              : 0.0,
        stats.percentile(0.50), stats.percentile(0.95),
        stats.percentile(0.99));
    const std::string summary = phase_summary_json(workload.name, stats);
    std::printf("%s\n", summary.c_str());
    phase_summaries.push_back(summary);
    doc.rows.push_back(bench_row(workload.name, stats, connections, rate));
  }
  if (doc.rows.empty()) {
    std::fprintf(stderr, "loadgen: no phases selected\n");
    return 2;
  }

  const std::string summary_out = cli.get("summary-out");
  if (!summary_out.empty()) {
    std::ofstream file(summary_out, std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "loadgen: cannot write %s\n",
                   summary_out.c_str());
      return 1;
    }
    JsonWriter w;
    w.begin_object()
        .member("schema", "meshbcast.loadgen")
        .member("version", std::uint64_t{1})
        .member("connections", static_cast<std::uint64_t>(connections))
        .member("rate", rate)
        .key("phases")
        .begin_array();
    for (const std::string& phase : phase_summaries) w.raw(phase);
    w.end_array().end_object();
    file << std::move(w).str() << '\n';
    std::printf("wrote %s\n", summary_out.c_str());
  }

  if (cli.get_flag("shutdown")) {
    RpcClient client;
    std::string error;
    JsonValue response;
    if (!client.connect(address, error) ||
        !client.call_json("{\"type\":\"shutdown\"}", response, error)) {
      std::fprintf(stderr, "loadgen: shutdown failed: %s\n", error.c_str());
      return 1;
    }
  }

  const std::string out = cli.get("json-out");
  if (!out.empty()) {
    if (!write_bench_doc(out, doc)) return 1;
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}
