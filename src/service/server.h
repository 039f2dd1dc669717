#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "service/journal.h"
#include "service/rpc.h"
#include "service/single_flight.h"
#include "service/slo.h"
#include "store/fingerprint.h"
#include "store/plan_store.h"
#include "topology/topology.h"

/// meshbcastd's core: a long-running broadcast-planning service speaking
/// `meshbcast.rpc` v1 (service/rpc.h) over loopback TCP or a Unix-domain
/// socket.
///
/// Concurrency model -- two thread roles and no queue:
///
///   * one accept thread, polling the listener with a short timeout so
///     the drain flag is observed promptly;
///   * one handler thread per connection.  It reads a frame, answers
///     `health`/`metrics`/`shutdown` inline (observability and drain
///     never wait for a permit), runs `plan` / `simulate` / `scenario`
///     itself once admission grants it a permit, writes the response,
///     and only then reads the next frame -- so socket writes need no
///     lock and clients get strictly ordered responses.
///
/// Admission is a permit count: at most `workers` requests execute at
/// once, at most `queue_capacity` more wait for a permit, served in
/// admission order, and past that a request is shed with a structured
/// `overloaded` error.  An uncontended permit is one compare-and-swap on
/// a word that also holds the drain bit.
///
/// Graceful drain (`shutdown()`, triggered by SIGINT/SIGTERM via
/// obs/heartbeat.h's SignalDrain or by the `shutdown` RPC): set the drain
/// bit (later admissions get `shutting_down`), stop accepting, wait until
/// every admitted request -- waiters included -- has written its
/// response, then half-close the connections to unblock the handlers and
/// join them.  In-flight `scenario` engines see the drain flag as their
/// cancel signal, so a million-job stream ends promptly in a `cancelled`
/// done frame rather than stalling the drain.
///
/// Concurrent cold `plan` requests for one fingerprint are serialized
/// through a KeyedMutex (service/single_flight.h): the store compiles
/// exactly once, the losers hit the memory tier.
///
/// Request-scoped observability: every successfully parsed frame gets a
/// unique server request id (`"req"` echoed in responses and errors).
/// Admitted-lane requests are timed per stage -- admission (frame read
/// to the admission decision), queue wait (the wait for a permit),
/// execution, emission -- with the stage spans tagged by the id on the
/// timeline (obs/timeline.h RequestTagScope), a record appended to the
/// request journal when one is configured, and the total folded into the
/// rolling SLO gauges (service/slo.h).  With no journal and the timeline
/// off, the extra cost per request is three steady-clock reads.
namespace wsn {

class Simulator;
struct JobMatrix;

struct ServiceConfig {
  /// Non-empty: listen on this Unix-domain socket path (wins over TCP).
  std::string unix_path;
  /// Loopback TCP port when `unix_path` is empty; 0 = ephemeral (read it
  /// back via `port()`).
  int tcp_port = 0;
  /// Requests executing at once (each on its connection's thread); 0
  /// resolves to 2.  `simulate` scratch is bounded by it too: at most
  /// this many simulators ever exist.
  std::size_t workers = 0;
  /// Requests that may wait for a permit beyond `workers`; 0 =
  /// max(2 x workers, 8).  Beyond it, requests shed with `overloaded`.
  std::size_t queue_capacity = 0;
  /// Frame-size cap (the request-size knob): a declared length above
  /// this is answered with `oversized` and the connection dropped.
  std::size_t max_request_bytes = 1u << 20;
  /// Topology-size cap for plan/simulate/scenario requests.
  std::size_t max_nodes = 1u << 20;
  /// Cap on the per-request scenario engine pool.
  std::size_t scenario_workers_cap = 8;
  /// Shared plan cache (nullable: every plan compiles fresh).
  PlanStore* store = nullptr;
  /// Metrics mirror (nullable): service.* counters/gauges/histograms,
  /// scraped live by the `metrics` RPC.
  MetricsRegistry* metrics = nullptr;
  /// Persistent request journal (nullable: no persistence).  Must be
  /// open()ed by the caller, who keeps ownership; the service appends
  /// one record per admitted-lane request (sheds included), seeds its
  /// request-id counter from the replayed max_seq, and publishes the
  /// journal's lifetime totals as service.lifetime_* gauges.
  RequestJournal* journal = nullptr;
  /// Rolling SLO window (requests) behind the service.slo.* gauges;
  /// only meaningful with a metrics registry.
  std::size_t slo_window = 2048;
  /// Time-based heartbeat period (0 = off), via obs/heartbeat.h.
  std::size_t heartbeat_ms = 0;
  /// Heartbeat sink; empty = stderr.
  std::function<void(const HeartbeatRecord&)> heartbeat_sink;
  /// Test hook: runs on the executing (connection handler) thread once
  /// the request holds its permit, just before it executes (nullable).
  /// The determinism tests use it to hold requests at a barrier and
  /// release them at once.
  std::function<void()> before_execute;
};

class MeshbcastService {
 public:
  explicit MeshbcastService(ServiceConfig config);
  ~MeshbcastService();
  MeshbcastService(const MeshbcastService&) = delete;
  MeshbcastService& operator=(const MeshbcastService&) = delete;

  /// Binds and spawns the accept thread.  False + `error` on
  /// bind failure.  Call once.
  [[nodiscard]] bool start(std::string& error);

  /// Bound TCP port (-1 when listening on a Unix socket).
  [[nodiscard]] int port() const noexcept;
  /// "tcp:127.0.0.1:<port>" or "unix:<path>" -- RpcClient::connect's
  /// address syntax.
  [[nodiscard]] std::string address() const;

  /// Blocks until the `shutdown` RPC arrives or `external_stop` (e.g.
  /// SignalDrain::flag()) goes true, then performs the graceful drain.
  void wait(const std::atomic<bool>* external_stop = nullptr);

  /// Graceful drain as described above.  Idempotent; must not be called
  /// from a handler thread (it cannot join itself) -- the `shutdown` RPC
  /// therefore only sets a flag that `wait()` observes.
  void shutdown();

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Lifetime totals, independent of any metrics registry.
  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;  // admitted-lane requests (plan/sim/scn)
    std::uint64_t served = 0;    // executed with an ok response
    std::uint64_t errors = 0;    // structured error responses
    std::uint64_t sheds = 0;     // rejected by admission control
    std::uint64_t bad_frames = 0;  // oversized / truncated / transport
  };
  [[nodiscard]] Counters counters() const noexcept;

 private:
  struct Connection {
    Socket sock;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  /// Outcome of the admission decision.
  enum class Admission { kRunning, kWaiting, kOverloaded, kDraining };

  /// Admission-lane timing, measured by the handler.
  struct Admitted {
    std::chrono::steady_clock::time_point at;  // decision; queue wait starts
    std::uint64_t ts_micros = 0;  // wall clock, for the journal (or 0)
    double admission_ms = 0.0;    // frame read -> admission decision
  };

  /// Per-request execution trace filled by the respond_* handlers and
  /// folded into the journal record.
  struct StageTrace {
    double exec_ms = 0.0;
    double emit_ms = 0.0;
    std::uint64_t fp_hi = 0;
    std::uint64_t fp_lo = 0;
  };

  /// Topologies built once per distinct (family, dims, spacing) and kept
  /// for the service lifetime: stable addresses are what lets the plan
  /// store memoize its O(links) adjacency digest, and the cached
  /// TopologyDigest makes the response fingerprint O(1) per request.
  struct TopoEntry {
    std::unique_ptr<Topology> topo;
    TopologyDigest digest;
  };

  struct MetricHandles {
    Counter* requests = nullptr;
    Counter* served = nullptr;
    Counter* errors = nullptr;
    Counter* sheds = nullptr;
    Counter* bad_frames = nullptr;
    Counter* connections = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* workers_busy = nullptr;
    Gauge* connections_open = nullptr;
    Histogram* request_ms = nullptr;
    Histogram* plan_ms = nullptr;
    Histogram* simulate_ms = nullptr;
    Histogram* scenario_ms = nullptr;
    Gauge* lifetime_requests = nullptr;
    Gauge* lifetime_served = nullptr;
    Gauge* lifetime_errors = nullptr;
    Gauge* lifetime_sheds = nullptr;
  };

  void accept_loop();
  void reap_finished();
  void handle_connection(const std::shared_ptr<Connection>& conn);
  /// Counts the request in, or refuses it.  kWaiting hands back the
  /// ticket whose grant is the request's permit.
  [[nodiscard]] Admission admit(std::uint64_t& ticket);
  void release_permit();
  /// Runs an admitted request holding its permit; false when the
  /// response could not be written (the connection is gone).
  [[nodiscard]] bool execute(Socket& sock, const RpcRequest& req,
                             const Admitted& admitted);
  [[nodiscard]] std::string respond_plan(const RpcRequest& req, bool& ok,
                                         StageTrace& trace);
  /// Parses and expands a simulate/scenario spec document; "" when the
  /// matrix is servable, else the error response.
  [[nodiscard]] std::string expand_spec(const RpcRequest& req,
                                        const JsonValue& doc,
                                        JobMatrix& matrix, StageTrace& trace);
  [[nodiscard]] std::string respond_simulate(const RpcRequest& req, bool& ok,
                                             StageTrace& trace);
  /// Streams the scenario to `sock`; false when a frame failed to write.
  [[nodiscard]] bool respond_scenario(Socket& sock, const RpcRequest& req,
                                      bool& ok, StageTrace& trace);
  /// Appends the request's journal record (when a journal is open) and
  /// folds its total into the SLO window.
  void record_request(const RpcRequest& req, const Admitted& admitted,
                      double queue_ms, const StageTrace& trace,
                      JournalOutcome outcome, std::uint8_t flags);
  void update_lifetime_gauges();
  [[nodiscard]] std::string health_json(const RpcRequest& req);
  [[nodiscard]] std::string metrics_json(const RpcRequest& req);
  [[nodiscard]] const TopoEntry* topology_for(const PlanRpc& plan,
                                              std::string& error);
  [[nodiscard]] HeartbeatRecord sample_heartbeat();

  ServiceConfig config_;
  std::size_t worker_count_ = 0;
  std::size_t queue_capacity_ = 0;
  Listener listener_;
  std::string address_;
  std::thread accept_thread_;
  std::unique_ptr<HeartbeatEmitter> heartbeat_;
  KeyedMutex flights_;

  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  /// kDrainBit plus the count of admitted requests that hold or wait for
  /// a permit.  One word, so nothing is admitted once drain has set the
  /// bit, and drain's "count reached zero" is final.
  static constexpr std::uint64_t kDrainBit = std::uint64_t{1} << 63;
  std::atomic<std::uint64_t> admitted_{0};
  /// Waiters take tickets in admission order; each release that frees a
  /// permit while someone waits grants the next one.  permit_cv_ also
  /// wakes the drain when the count reaches zero.
  std::mutex permit_mutex_;
  std::condition_variable permit_cv_;
  std::uint64_t tickets_ = 0;
  std::uint64_t grants_ = 0;

  /// Idle `simulate` scratch, at most `workers` simulators.
  std::mutex simulators_mutex_;
  std::vector<std::unique_ptr<Simulator>> idle_simulators_;

  std::mutex topologies_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TopoEntry>> topologies_;

  std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::chrono::steady_clock::time_point started_at_;

  MetricHandles m_;
  std::unique_ptr<SloTracker> slo_;
  /// Unique server request ids; seeded past the journal's replayed
  /// max_seq so ids stay unique across restarts of one journal.
  std::atomic<std::uint64_t> request_seq_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::size_t> connections_open_{0};
};

}  // namespace wsn
