#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "scenario/spec.h"
#include "store/plan_store.h"

/// The scenario engine: executes an expanded job matrix (scenario/spec.h)
/// on a long-lived worker pool fed through a bounded MPMC queue
/// (common/bounded_queue.h), streaming one JSONL record per job into a
/// results file that doubles as the run's checkpoint.
///
/// Guarantees, in the order the acceptance tests check them:
///
///   * Determinism.  Every record is a pure function of its job (wall
///     clock, worker count, queue timing and plan-cache temperature never
///     leak into a record), and records are emitted in strict job-index
///     order -- the results file is byte-identical at workers=1 and
///     workers=N, cold or warm store.
///   * Backpressure.  The producer blocks once `queue_capacity` jobs are
///     in flight; a million-job matrix never materializes ahead of the
///     workers.
///   * Cooperative cancellation.  `request_cancel()` (or the external
///     `cancel` flag, polled between jobs -- a SIGINT handler can set it
///     asynchronously) lets in-flight jobs finish, discards the backlog,
///     and leaves a valid, resumable prefix on disk.
///   * Resume.  `--resume` scans the existing results file: the header
///     must carry this matrix's fingerprint (a different spec is a hard
///     error), then the longest valid prefix of records counts as done and
///     execution continues from the first missing job.  A truncated,
///     corrupt or partially-written line -- and anything after it -- is
///     simply redone: plan-store philosophy, a bad checkpoint is a redo,
///     never a crash.  A resumed run's final file is byte-identical to an
///     uninterrupted one.
///
/// A sidecar manifest (`<results>.manifest`) mirrors progress for cheap
/// outside inspection; it is advisory -- the results file is the source of
/// truth and a missing or corrupt manifest is ignored.
namespace wsn {

class TelemetrySampler;

// Progress heartbeats (HeartbeatRecord, heartbeat_json) live in
// obs/heartbeat.h, shared with the service daemon; `on_heartbeat` below
// fires every `heartbeat_every` emitted records.  Cadence is COUNT-based
// (a pure function of emission progress) but the payload carries live
// pool telemetry -- queue depth, busy workers -- which is exactly why
// heartbeats go through a callback and never into the results stream:
// records stay byte-identical across worker counts, heartbeats do not
// have to.

struct EngineConfig {
  /// Worker threads; 0 resolves through flag > MESHBCAST_THREADS >
  /// hardware (common/parallel.h).
  std::size_t workers = 0;
  /// Bounded queue capacity; 0 = max(2 x workers, 16).
  std::size_t queue_capacity = 0;
  /// Continue an interrupted run instead of truncating the results file.
  bool resume = false;
  /// Shared plan cache for the paper/cds compiles (nullable).
  PlanStore* store = nullptr;
  /// Metrics mirror (nullable): scenario.jobs_completed / jobs_failed /
  /// jobs_skipped counters and the scenario.queue_wait_ms histogram.
  MetricsRegistry* metrics = nullptr;
  /// External cancellation flag, polled between jobs (nullable).  Safe to
  /// set from a signal handler.
  const std::atomic<bool>* cancel = nullptr;
  /// Called after each record hits the stream with the total emitted so
  /// far (resumed records included).  Runs on a worker thread; used for
  /// progress display and by the kill/resume tests.
  std::function<void(std::size_t emitted)> on_emit;
  /// Audit every simulated job's event stream in-line (obs/audit) and
  /// append the deterministic verdict -- checks run, violation count,
  /// failed check names -- to its record.  Observability stays opt-in:
  /// without this flag jobs run unobserved exactly as before.
  bool audit = false;
  /// Fire `on_heartbeat` when emission crosses a multiple of N records,
  /// once per in-order batch that crosses one (0 = off).
  std::size_t heartbeat_every = 0;
  /// Heartbeat hook; runs on a worker thread, outside the collector lock.
  std::function<void(const HeartbeatRecord&)> on_heartbeat;
  /// In-order record sink (nullable): called with each record line (no
  /// trailing newline) in strict job-index order as it is emitted -- the
  /// same bytes the results file receives, which is how the service
  /// daemon streams scenario results to a client while keeping them
  /// byte-identical to an offline run.  Fires only for records emitted
  /// this invocation (a resumed prefix is not replayed).  Runs under the
  /// collector lock so ordering is structural; a slow sink backpressures
  /// emission exactly like a slow disk.
  std::function<void(std::size_t index, const std::string& line)> on_record;
  /// Per-job watchdog deadline in milliseconds (0 = off).  A job running
  /// past its deadline is resolved into an error record carrying the
  /// elapsed time and the execution stage it was in, so in-order emission
  /// proceeds past it instead of stalling forever.  The stalled worker is
  /// NOT killed (threads cannot be safely cancelled): when the job
  /// eventually finishes, its real result is discarded -- first
  /// resolution wins.  Deadlines are wall-clock events, so the
  /// byte-identity guarantee only covers runs in which no job timed out.
  std::size_t job_timeout_ms = 0;
  /// Test hook, called on the worker thread immediately before a job
  /// executes (nullable).  Exists so tests can inject a deterministic
  /// stall and exercise the watchdog.
  std::function<void(const ScenarioJob&)> before_job;
  /// Periodic utilization sampler (nullable, obs/sampler.h).  When set,
  /// the engine publishes a per-worker state board (idle/busy/blocked)
  /// that the sampler polls into the `meshbcast.timeseries` stream.  The
  /// caller owns start/stop; the engine wires the state provider for the
  /// duration of run() and detaches it before returning.  Without a
  /// sampler the workers skip even the relaxed state stores.
  TelemetrySampler* sampler = nullptr;
};

/// Per-scenario aggregate over the ok records -- the best/worst/max-delay
/// envelope the paper's Tables 3-5 are built from, folded incrementally so
/// the runner can print the tables without re-reading the results file.
struct ScenarioEnvelope {
  std::string scenario;
  std::size_t jobs = 0;
  std::size_t errors = 0;
  NodeId best_source = kInvalidNode;   // minimal total energy (Table 3)
  NodeId worst_source = kInvalidNode;  // maximal total energy (Table 4)
  Joules best_energy = std::numeric_limits<double>::infinity();
  Joules worst_energy = 0.0;
  double energy_sum = 0.0;
  std::size_t best_tx = 0, best_rx = 0;
  std::size_t worst_tx = 0, worst_rx = 0;
  Slot max_delay = 0;  // over all records (Table 5)
  bool all_reached = true;
  double etr_share_sum = 0.0;  // over records carrying ETR output
  std::size_t etr_jobs = 0;

  [[nodiscard]] double mean_energy() const noexcept {
    return jobs == 0 ? 0.0 : energy_sum / static_cast<double>(jobs);
  }
};

struct RunSummary {
  bool ok = false;          // false: I/O or resume-validation failure
  std::string error;        // set when !ok
  bool cancelled = false;   // stopped cooperatively before completion
  bool resumed = false;     // a valid prefix was found and kept
  std::size_t jobs_total = 0;
  std::size_t jobs_skipped = 0;  // satisfied by the resumed prefix
  std::size_t jobs_run = 0;      // executed this invocation
  std::size_t errors = 0;        // error records, prefix included
  std::size_t emitted = 0;       // records in the file now
  /// Mean queue wait of the jobs run this invocation, ms (observability
  /// only -- never written into records).
  double queue_wait_ms_mean = 0.0;
  std::vector<ScenarioEnvelope> envelopes;  // spec entry order
};

class ScenarioEngine {
 public:
  /// `matrix` must outlive the engine.
  ScenarioEngine(const JobMatrix& matrix, EngineConfig config);

  /// Executes the matrix, streaming records to `results_path` (and the
  /// `<results_path>.manifest` sidecar).  Blocking; returns the summary.
  /// An EMPTY `results_path` runs stream-only: no file, no manifest, no
  /// resume -- records reach `EngineConfig::on_record` alone (the
  /// service daemon's mode).
  [[nodiscard]] RunSummary run(const std::string& results_path);

  /// Cooperative cancel: in-flight jobs finish, the backlog is dropped.
  /// Callable from any thread (e.g. from `on_emit`).
  void request_cancel();

  /// The deterministic header line (no trailing newline) this matrix
  /// stamps at the top of its results file.
  [[nodiscard]] std::string header_line() const;

 private:
  struct Impl;
  const JobMatrix& matrix_;
  EngineConfig config_;
  std::atomic<bool> stop_{false};
  Impl* active_ = nullptr;  // run()-scoped; guarded by run_mutex_
  std::mutex run_mutex_;
};

/// Runs one expanded job to its deterministic record line -- the exact
/// bytes the engine would emit for it (same plan-store interaction, same
/// audit fold).  This is the service daemon's `simulate` path: one
/// request, one record, no pool.  `sim` is the caller's reusable
/// simulator; `store` and `audit` mean what they mean in EngineConfig.
[[nodiscard]] std::string run_scenario_job(const JobMatrix& matrix,
                                           const ScenarioJob& job,
                                           Simulator& sim, PlanStore* store,
                                           bool audit);

}  // namespace wsn
