// meshbcastd: the long-running broadcast-planning service.
//
//   meshbcastd --port 0                       # loopback TCP, ephemeral
//   meshbcastd --unix /tmp/meshbcast.sock     # Unix-domain socket
//   meshbcastd --port 7970 --workers 8 --queue-cap 64
//              --plan-cache .plan-cache --heartbeat-ms 1000
//   meshbcastd --port 0 --journal requests.wsnj   # persistent journal
//   meshbcastd --port 0 --timeline-out spans.jsonl  # tagged span dump
//
// Speaks `meshbcast.rpc` v1 (src/service/rpc.h): plan / simulate /
// scenario / metrics / health / shutdown over 4-byte length-prefixed JSON
// frames.  Prints one line to stdout when ready --
//
//   meshbcastd listening on tcp:127.0.0.1:34787
//
// -- which scripts (the CI smoke job, loadgen wrappers) scrape for the
// address.  Drains gracefully on SIGINT/SIGTERM or the `shutdown` RPC:
// in-flight requests finish, every admitted request gets its response,
// then the process exits 0 with a final counter summary on stderr.
//
// With --journal PATH every admitted-lane request is persisted to a
// WSNJRNL1 journal (src/service/journal.h).  On boot the daemon replays
// the journal -- truncating any torn tail from a crash -- and prints a
// greppable line to stderr:
//
//   meshbcastd: journal replayed 6300 records (served=6290 errors=4
//   sheds=6, max_seq=6300, torn_bytes=0)
//
// Query it offline with tools/meshbcast_journal.  --timeline-out enables
// the span timeline (request-tagged) and writes a `meshbcast.timeline`
// JSONL dump after the drain, for perf_report --request/--slowest.
#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "service/journal.h"
#include "service/server.h"
#include "store/plan_store.h"

int main(int argc, char** argv) {
  using namespace wsn;

  CliParser cli("meshbcastd", "broadcast-planning service daemon", 2);
  cli.add_option("port", "loopback TCP port (0 = ephemeral)", "0");
  cli.add_option("unix", "Unix-domain socket path (wins over --port)", "");
  cli.add_option("workers", "requests executing at once", "2");
  cli.add_option("queue-cap",
                 "requests waiting for a permit before more are shed"
                 " (0 = max(2x workers, 8))",
                 "0");
  cli.add_option("max-request-bytes",
                 "per-frame request size cap in bytes", "1048576");
  cli.add_option("max-nodes", "largest topology a request may ask for",
                 "1048576");
  cli.add_option("scenario-workers-cap",
                 "cap on a scenario request's engine pool", "8");
  cli.add_option("plan-cache",
                 "plan store artifact directory (empty = memory-only)", "");
  cli.add_option("heartbeat-ms",
                 "liveness heartbeat period on stderr (0 = off)", "1000");
  cli.add_option("journal",
                 "WSNJRNL1 request journal path (empty = no persistence)",
                 "");
  cli.add_option("journal-flush-ms",
                 "journal batch-fsync interval in milliseconds", "50");
  cli.add_option("timeline-out",
                 "write the request-tagged span timeline here at exit"
                 " (empty = timeline off)", "");
  if (!cli.parse(argc, argv)) return 2;

  PlanStore::Config store_config;
  store_config.disk_dir = cli.get("plan-cache");
  PlanStore store(store_config);
  MetricsRegistry metrics;
  store.bind_metrics(metrics);

  ServiceConfig config;
  config.unix_path = cli.get("unix");
  config.tcp_port = static_cast<int>(cli.get_u64("port"));
  config.workers = cli.get_u64("workers");
  config.queue_capacity = cli.get_u64("queue-cap");
  config.max_request_bytes = cli.get_u64("max-request-bytes");
  config.max_nodes = cli.get_u64("max-nodes");
  config.scenario_workers_cap = cli.get_u64("scenario-workers-cap");
  config.store = &store;
  config.metrics = &metrics;
  config.heartbeat_ms = cli.get_u64("heartbeat-ms");

  RequestJournal journal;
  const std::string journal_path = cli.get("journal");
  if (!journal_path.empty()) {
    RequestJournal::Config journal_config;
    journal_config.path = journal_path;
    journal_config.flush_interval_ms = cli.get_u64("journal-flush-ms");
    std::string journal_error;
    if (!journal.open(journal_config, journal_error)) {
      std::fprintf(stderr, "meshbcastd: journal: %s\n",
                   journal_error.c_str());
      return 1;
    }
    const JournalReplay& replay = journal.replay();
    std::fprintf(stderr,
                 "meshbcastd: journal replayed %llu records (served=%llu "
                 "errors=%llu sheds=%llu, max_seq=%llu, torn_bytes=%llu)\n",
                 static_cast<unsigned long long>(replay.records),
                 static_cast<unsigned long long>(replay.served),
                 static_cast<unsigned long long>(replay.errors),
                 static_cast<unsigned long long>(replay.sheds),
                 static_cast<unsigned long long>(replay.max_seq),
                 static_cast<unsigned long long>(replay.truncated_bytes));
    config.journal = &journal;
  }

  const std::string timeline_path = cli.get("timeline-out");
  if (!timeline_path.empty()) {
    Timeline::instance().set_enabled(true);
  }

  // The latch must exist before the listener so a signal during startup
  // still drains instead of killing the process mid-bind.
  SignalDrain drain;
  MeshbcastService service(std::move(config));
  std::string error;
  if (!service.start(error)) {
    std::fprintf(stderr, "meshbcastd: %s\n", error.c_str());
    return 1;
  }
  std::printf("meshbcastd listening on %s\n", service.address().c_str());
  std::fflush(stdout);

  service.wait(drain.flag());

  const MeshbcastService::Counters c = service.counters();
  const PlanStore::Stats s = store.stats();
  std::fprintf(stderr,
               "meshbcastd: drained. connections=%llu requests=%llu "
               "served=%llu errors=%llu sheds=%llu bad_frames=%llu "
               "compiles=%llu disk_hits=%llu\n",
               static_cast<unsigned long long>(c.connections),
               static_cast<unsigned long long>(c.requests),
               static_cast<unsigned long long>(c.served),
               static_cast<unsigned long long>(c.errors),
               static_cast<unsigned long long>(c.sheds),
               static_cast<unsigned long long>(c.bad_frames),
               static_cast<unsigned long long>(s.compiles),
               static_cast<unsigned long long>(s.disk_hits));
  if (!timeline_path.empty()) {
    Timeline::instance().set_enabled(false);
    std::ofstream out(timeline_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "meshbcastd: cannot write %s\n",
                   timeline_path.c_str());
      return 1;
    }
    write_timeline_jsonl(out, Timeline::instance().snapshot());
    std::fprintf(stderr, "meshbcastd: timeline written to %s\n",
                 timeline_path.c_str());
  }
  if (!journal_path.empty()) {
    journal.close();
    const JournalLifetime life = journal.lifetime();
    std::fprintf(stderr,
                 "meshbcastd: journal closed at %llu lifetime records "
                 "(served=%llu errors=%llu sheds=%llu)\n",
                 static_cast<unsigned long long>(life.records),
                 static_cast<unsigned long long>(life.served),
                 static_cast<unsigned long long>(life.errors),
                 static_cast<unsigned long long>(life.sheds));
  }
  return 0;
}
