// service/server: the meshbcastd core, tested live over loopback.
// Covers the acceptance properties the service was built around:
// per-connection error recovery, admission-control shedding, the
// single-flight compile guarantee, and -- the headline -- scenario
// streams that are byte-identical to an offline scenario_runner run at
// any worker count, even with concurrent clients.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/socket.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "service/client.h"
#include "service/rpc.h"
#include "service/server.h"
#include "sim/simulator.h"
#include "store/plan_store.h"

namespace wsn {
namespace {

std::string plan_request(std::uint64_t id, std::uint64_t source) {
  std::string req = "{\"type\":\"plan\",\"id\":";
  req += std::to_string(id);
  req += ",\"family\":\"2D-4\",\"dims\":[6,4],\"source\":";
  req += std::to_string(source);
  req += "}";
  return req;
}

RpcClient connect_to(const MeshbcastService& service) {
  RpcClient client;
  std::string error;
  EXPECT_TRUE(client.connect(service.address(), error)) << error;
  return client;
}

JsonValue call(RpcClient& client, const std::string& request) {
  JsonValue response;
  std::string error;
  EXPECT_TRUE(client.call_json(request, response, error)) << error;
  return response;
}

/// A small two-scenario spec document: 12 jobs across two protocols,
/// enough to exercise ordering without slowing the suite down.
const char kSpecJson[] =
    "{\"name\":\"svc_determinism\",\"scenarios\":["
    "{\"name\":\"sweep\",\"family\":\"2D-4\",\"dims\":[6,4],"
    "\"sources\":[0,5,11,17,23],\"protocols\":[\"paper\",\"cds\"]},"
    "{\"name\":\"tri\",\"family\":\"2D-8\",\"dims\":[4,4],"
    "\"sources\":[0,7],\"protocols\":[\"paper\"]}]}";

/// Runs `kSpecJson` offline through the scenario engine and returns the
/// results-file record lines (header excluded).  `tag` keeps the temp
/// file unique per test: ctest runs these tests as concurrent processes
/// (hence the pid suffix too), and a shared path would let one test
/// delete the reference file out from under another.
std::vector<std::string> offline_records(const std::string& tag) {
  JsonValue doc;
  EXPECT_TRUE(parse_json(kSpecJson, doc));
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(parse_scenario_spec(doc, spec, error)) << error;
  JobMatrix matrix;
  EXPECT_TRUE(expand_jobs(std::move(spec), matrix, error)) << error;
  EngineConfig config;
  config.workers = 1;
  ScenarioEngine engine(matrix, config);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("wsn_test_service_ref_" + tag + "_" + std::to_string(::getpid()) +
       ".jsonl");
  std::filesystem::remove(path);
  const RunSummary summary = engine.run(path.string());
  EXPECT_TRUE(summary.ok) << summary.error;
  std::vector<std::string> lines;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  std::filesystem::remove(path);
  if (lines.size() < 2) {
    ADD_FAILURE() << "offline reference run produced " << lines.size()
                  << " lines";
    return {};
  }
  lines.erase(lines.begin());  // drop the header line
  return lines;
}

/// Streams `kSpecJson` through a live service and returns the record
/// frames in arrival order.
std::vector<std::string> service_records(const MeshbcastService& service,
                                         std::uint64_t workers) {
  RpcClient client = connect_to(service);
  std::string request =
      "{\"type\":\"scenario\",\"id\":1,\"workers\":" +
      std::to_string(workers) + ",\"spec\":";
  request += kSpecJson;
  request += "}";
  std::vector<std::string> records;
  JsonValue finish;
  std::string error;
  EXPECT_TRUE(client.scenario(
      request, [&](const std::string& line) { records.push_back(line); },
      finish, error))
      << error;
  EXPECT_EQ(finish.string_or("type", ""), "scenario.done");
  EXPECT_TRUE(finish.bool_or("ok", false));
  EXPECT_FALSE(finish.bool_or("cancelled", true));
  EXPECT_EQ(finish.number_or("emitted", 0),
            static_cast<double>(records.size()));
  return records;
}

TEST(ServiceTest, HealthReportsServing) {
  MeshbcastService service(ServiceConfig{});
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  EXPECT_GT(service.port(), 0);

  RpcClient client = connect_to(service);
  const JsonValue health = call(client, "{\"type\":\"health\",\"id\":2}");
  EXPECT_EQ(health.string_or("type", ""), "response");
  EXPECT_EQ(health.number_or("id", -1), 2.0);
  EXPECT_TRUE(health.bool_or("ok", false));
  EXPECT_EQ(health.string_or("status", ""), "serving");
  EXPECT_GE(health.number_or("workers", 0), 1.0);
  EXPECT_GE(health.number_or("queue_capacity", 0), 1.0);
  EXPECT_EQ(health.number_or("connections", 0), 1.0);
  service.shutdown();
}

TEST(ServiceTest, ParseErrorsLeaveTheConnectionUsable) {
  MeshbcastService service(ServiceConfig{});
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);

  // Unparseable JSON: structured bad_json, connection stays up.
  JsonValue response = call(client, "{\"type\":");
  EXPECT_EQ(response.string_or("type", ""), "error");
  EXPECT_EQ(response.find("error")->string_or("code", ""), "bad_json");

  // Invalid UTF-8: bad_encoding.
  std::string mojibake = "{\"type\":\"health\",\"x\":\"";
  mojibake.push_back(static_cast<char>(0xff));
  mojibake += "\"}";
  response = call(client, mojibake);
  EXPECT_EQ(response.find("error")->string_or("code", ""), "bad_encoding");

  // Schema violation with an id: bad_request, id echoed.
  response = call(client, "{\"type\":\"teleport\",\"id\":77}");
  EXPECT_EQ(response.find("error")->string_or("code", ""), "bad_request");
  EXPECT_EQ(response.number_or("id", -1), 77.0);

  // After three straight rejects the SAME connection still serves.
  response = call(client, "{\"type\":\"health\"}");
  EXPECT_TRUE(response.bool_or("ok", false));

  const MeshbcastService::Counters counters = service.counters();
  EXPECT_EQ(counters.errors, 3u);
  EXPECT_EQ(counters.bad_frames, 0u);
  service.shutdown();
}

TEST(ServiceTest, OversizedFrameIsAnsweredThenDropped) {
  ServiceConfig config;
  config.max_request_bytes = 64;
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);

  // 65 bytes against a 64-byte cap: the stream cannot be resynchronized
  // (the payload was never read), so the server answers and hangs up.
  ASSERT_TRUE(write_frame(client.socket(), std::string(65, ' ')));
  std::string payload;
  ASSERT_EQ(read_frame(client.socket(), payload, 1 << 20),
            FrameStatus::kOk);
  JsonValue response;
  ASSERT_TRUE(parse_json(payload, response));
  EXPECT_EQ(response.find("error")->string_or("code", ""), "oversized");
  // The connection is dropped.  Whether that lands as a clean EOF or a
  // reset depends on the kernel: the unread oversized payload still sits
  // in the server's receive buffer, and closing over unread data sends
  // RST rather than FIN.  Either way, no further frame arrives.
  const FrameStatus after = read_frame(client.socket(), payload, 1 << 20);
  EXPECT_TRUE(after == FrameStatus::kClosed || after == FrameStatus::kError)
      << to_string(after);
  EXPECT_EQ(service.counters().bad_frames, 1u);
  service.shutdown();
}

TEST(ServiceTest, PlanResponseCarriesTheFullContract) {
  PlanStore store;
  ServiceConfig config;
  config.store = &store;
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);

  const JsonValue response = call(client, plan_request(4, 9));
  EXPECT_EQ(response.string_or("type", ""), "response");
  EXPECT_EQ(response.number_or("id", -1), 4.0);
  EXPECT_TRUE(response.bool_or("ok", false));
  EXPECT_EQ(response.string_or("family", ""), "2D-4");
  EXPECT_EQ(response.string_or("protocol", ""), "paper");
  EXPECT_EQ(response.number_or("nodes", 0), 24.0);
  EXPECT_EQ(response.number_or("source", -1), 9.0);
  EXPECT_EQ(response.string_or("origin", ""), "compiled");
  EXPECT_FALSE(response.string_or("fingerprint", "").empty());
  EXPECT_GT(response.number_or("planned_tx", 0), 0.0);

  // An out-of-range source is a structured bad_request, not a crash.
  const JsonValue bad = call(client, plan_request(5, 24));
  EXPECT_EQ(bad.find("error")->string_or("code", ""), "bad_request");
  service.shutdown();
}

TEST(ServiceTest, RepeatPlanHitsTheMemoryTier) {
  PlanStore store;
  ServiceConfig config;
  config.store = &store;
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);

  EXPECT_EQ(call(client, plan_request(1, 3)).string_or("origin", ""),
            "compiled");
  EXPECT_EQ(call(client, plan_request(2, 3)).string_or("origin", ""),
            "memory hit");
  EXPECT_EQ(store.stats().compiles, 1u);
  service.shutdown();
}

TEST(ServiceTest, ConcurrentIdenticalPlansCompileExactlyOnce) {
  constexpr std::size_t kClients = 3;
  PlanStore store;
  // A barrier in before_execute holds every request on its worker until
  // all three have been popped -- the compile race is then guaranteed,
  // not merely likely, and the single-flight lock must resolve it.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  std::size_t arrived = 0;
  ServiceConfig config;
  config.store = &store;
  config.workers = kClients;
  config.before_execute = [&] {
    std::unique_lock<std::mutex> lock(barrier_mutex);
    ++arrived;
    barrier_cv.notify_all();
    barrier_cv.wait_for(lock, std::chrono::seconds(5),
                        [&] { return arrived >= kClients; });
  };
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;

  std::vector<std::string> origins(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RpcClient client = connect_to(service);
      origins[i] =
          call(client, plan_request(i, 7)).string_or("origin", "x");
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one compile; the two losers of the single-flight race were
  // served from the memory tier.
  EXPECT_EQ(store.stats().compiles, 1u);
  std::size_t compiled = 0, memory = 0;
  for (const std::string& origin : origins) {
    if (origin == "compiled") ++compiled;
    if (origin == "memory hit") ++memory;
  }
  EXPECT_EQ(compiled, 1u);
  EXPECT_EQ(memory, kClients - 1);
  service.shutdown();
}

TEST(ServiceTest, FullQueueShedsWithOverloaded) {
  // One worker, a one-slot queue, and a gate that parks the worker:
  // request A executes (blocked at the gate), B fills the queue, C must
  // be shed with a structured `overloaded` -- never queued unboundedly.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<std::size_t> executing{0};
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.before_execute = [&] {
    executing.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(5),
                     [&] { return gate_open; });
  };
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;

  JsonValue response_a, response_b;
  std::thread a([&] {
    RpcClient client = connect_to(service);
    response_a = call(client, plan_request(1, 0));
  });
  // Wait until A is parked on the worker, then enqueue B.
  while (executing.load() == 0) std::this_thread::yield();
  std::thread b([&] {
    RpcClient client = connect_to(service);
    response_b = call(client, plan_request(2, 1));
  });
  // B is admitted on its handler thread; the queue is full once the
  // service has counted both admission-lane requests.
  while (service.counters().requests < 2) std::this_thread::yield();

  RpcClient shed_client = connect_to(service);
  const JsonValue shed = call(shed_client, plan_request(3, 2));
  EXPECT_EQ(shed.string_or("type", ""), "error");
  EXPECT_EQ(shed.find("error")->string_or("code", ""), "overloaded");
  EXPECT_EQ(shed.number_or("id", -1), 3.0);

  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  a.join();
  b.join();
  EXPECT_TRUE(response_a.bool_or("ok", false));
  EXPECT_TRUE(response_b.bool_or("ok", false));
  // The worker bumps `served` after writing the response frame, so the
  // client can observe its reply a beat before the counter; poll.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.counters().served < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const MeshbcastService::Counters counters = service.counters();
  EXPECT_EQ(counters.sheds, 1u);
  EXPECT_EQ(counters.served, 2u);
  service.shutdown();
}

TEST(ServiceTest, ScenarioStreamIsByteIdenticalToOfflineRun) {
  const std::vector<std::string> reference = offline_records("identity");
  ASSERT_FALSE(reference.empty());

  PlanStore store;
  ServiceConfig config;
  config.store = &store;
  config.workers = 2;
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;

  // workers=1 and workers=8 must both reproduce the offline file's
  // record bytes in order -- the engine's determinism contract holds
  // through the streaming path.
  EXPECT_EQ(service_records(service, 1), reference);
  EXPECT_EQ(service_records(service, 8), reference);
  service.shutdown();
}

TEST(ServiceTest, ConcurrentScenarioClientsEachGetTheExactStream) {
  const std::vector<std::string> reference = offline_records("concurrent");
  ASSERT_FALSE(reference.empty());
  PlanStore store;
  ServiceConfig config;
  config.store = &store;
  config.workers = 2;  // both streams run at once
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;

  std::vector<std::string> first, second;
  std::thread one([&] { first = service_records(service, 8); });
  std::thread two([&] { second = service_records(service, 8); });
  one.join();
  two.join();
  EXPECT_EQ(first, reference);
  EXPECT_EQ(second, reference);
  service.shutdown();
}

TEST(ServiceTest, SimulateMatchesTheOfflineRecord) {
  // Build the offline reference record for one job.
  JsonValue doc;
  ASSERT_TRUE(parse_json(
      "{\"name\":\"one\",\"scenarios\":[{\"name\":\"one\","
      "\"family\":\"2D-4\",\"dims\":[6,4],\"sources\":[3],"
      "\"protocols\":[\"paper\"]}]}",
      doc));
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario_spec(doc, spec, error)) << error;
  JobMatrix matrix;
  ASSERT_TRUE(expand_jobs(std::move(spec), matrix, error)) << error;
  ASSERT_EQ(matrix.jobs.size(), 1u);
  Simulator sim;
  const std::string reference =
      run_scenario_job(matrix, matrix.jobs[0], sim, nullptr, false);

  MeshbcastService service(ServiceConfig{});
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);
  const JsonValue response = call(
      client,
      "{\"type\":\"simulate\",\"id\":6,\"name\":\"one\","
      "\"family\":\"2D-4\",\"dims\":[6,4],\"sources\":[3],"
      "\"protocols\":[\"paper\"]}");
  EXPECT_TRUE(response.bool_or("ok", false));
  const JsonValue* record = response.find("record");
  ASSERT_NE(record, nullptr);
  JsonValue reference_doc;
  ASSERT_TRUE(parse_json(reference, reference_doc));
  // Field-level identity of the embedded record against the offline
  // single-job runner (the record is spliced as raw JSON, so compare
  // through the parser rather than as substrings).
  for (const auto& [key, value] : reference_doc.as_object()) {
    const JsonValue* got = record->find(key);
    ASSERT_NE(got, nullptr) << key;
    if (value.is_number()) {
      EXPECT_EQ(got->as_number(), value.as_number()) << key;
    } else if (value.is_string()) {
      EXPECT_EQ(got->as_string(), value.as_string()) << key;
    }
  }

  // A multi-job expansion is rejected: simulate means ONE job.
  const JsonValue multi = call(
      client,
      "{\"type\":\"simulate\",\"family\":\"2D-4\",\"dims\":[6,4],"
      "\"sources\":[0,1],\"protocols\":[\"paper\"]}");
  EXPECT_EQ(multi.find("error")->string_or("code", ""), "bad_request");
  service.shutdown();
}

TEST(ServiceTest, InvalidScenarioSpecIsAStructuredError) {
  MeshbcastService service(ServiceConfig{});
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);
  const JsonValue response = call(
      client,
      "{\"type\":\"scenario\",\"id\":8,\"spec\":{\"name\":\"bad\","
      "\"scenarios\":[{\"name\":\"x\",\"family\":\"9D-99\","
      "\"sources\":[0],\"protocols\":[\"paper\"]}]}}");
  EXPECT_EQ(response.string_or("type", ""), "error");
  EXPECT_EQ(response.find("error")->string_or("code", ""),
            "invalid_spec");
  EXPECT_EQ(response.number_or("id", -1), 8.0);
  service.shutdown();
}

TEST(ServiceTest, ServesOverAUnixSocket) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsn_test_service.sock")
          .string();
  ServiceConfig config;
  config.unix_path = path;
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  EXPECT_EQ(service.port(), -1);
  EXPECT_EQ(service.address(), "unix:" + path);

  RpcClient client = connect_to(service);
  EXPECT_TRUE(
      call(client, "{\"type\":\"health\"}").bool_or("ok", false));
  const JsonValue plan = call(client, plan_request(1, 0));
  EXPECT_TRUE(plan.bool_or("ok", false));
  service.shutdown();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServiceTest, MetricsRpcScrapesTheRegistry) {
  MetricsRegistry metrics;
  ServiceConfig config;
  config.metrics = &metrics;
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);
  (void)call(client, plan_request(1, 0));

  std::string response;
  ASSERT_TRUE(client.call("{\"type\":\"metrics\"}", response, error))
      << error;
  JsonValue doc;
  ASSERT_TRUE(parse_json(response, doc));
  EXPECT_TRUE(doc.bool_or("ok", false));
  ASSERT_NE(doc.find("metrics"), nullptr);
  // The embedded snapshot carries the service.* instruments.
  EXPECT_NE(response.find("service.requests"), std::string::npos);
  EXPECT_NE(response.find("service.request_ms"), std::string::npos);
  service.shutdown();
}

TEST(ServiceTest, ShutdownRpcFlagsAndWaitDrains) {
  MeshbcastService service(ServiceConfig{});
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  RpcClient client = connect_to(service);

  EXPECT_FALSE(service.shutdown_requested());
  const JsonValue response = call(client, "{\"type\":\"shutdown\"}");
  EXPECT_TRUE(response.bool_or("ok", false));
  EXPECT_EQ(response.string_or("status", ""), "draining");
  // The handler flags the request just after writing the ack, so the
  // client can hold the response a beat before the flag is visible.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!service.shutdown_requested() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(service.shutdown_requested());

  // wait() observes the flag and performs the drain; it must return.
  service.wait();
  // After the drain the socket is gone: the next call fails cleanly.
  std::string dead_response;
  EXPECT_FALSE(
      client.call("{\"type\":\"health\"}", dead_response, error));
}

TEST(ServiceTest, WaitHonorsAnExternalStopFlag) {
  MeshbcastService service(ServiceConfig{});
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  std::atomic<bool> stop{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop.store(true);
  });
  service.wait(&stop);  // must return once the flag flips
  trigger.join();
}

/// Polls `done` until it holds or five seconds pass.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A gate for `before_execute`: each request that reaches it records its
/// request id and parks until the gate opens.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::vector<std::uint64_t> order;  // request ids, in execution order

  void arrive() {
    std::unique_lock<std::mutex> lock(mutex);
    order.push_back(obs_detail::request_tag());
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return open; });
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  std::size_t arrived() {
    const std::lock_guard<std::mutex> lock(mutex);
    return order.size();
  }
};

TEST(ServiceTest, PermitsBoundConcurrentExecution) {
  // Four connections on two permits: a probe inside before_execute (the
  // request already holds its permit there) must never see more than two
  // requests at once, and every request still ends ok.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 12;
  std::atomic<std::size_t> inside{0};
  std::atomic<std::size_t> peak{0};
  MetricsRegistry metrics;
  ServiceConfig config;
  config.workers = 2;
  config.metrics = &metrics;
  config.before_execute = [&] {
    const std::size_t now = inside.fetch_add(1) + 1;
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inside.fetch_sub(1);
  };
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;

  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RpcClient client = connect_to(service);
      for (std::size_t k = 0; k < kPerClient; ++k) {
        if (call(client, plan_request(k, c)).bool_or("ok", false)) ++ok;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_LE(peak.load(), 2u);
  EXPECT_GE(peak.load(), 1u);

  // A permit is released just after its response is written; once every
  // one is back, both signals read zero.
  RpcClient probe = connect_to(service);
  JsonValue health;
  EXPECT_TRUE(eventually([&] {
    health = call(probe, "{\"type\":\"health\"}");
    return health.number_or("workers_busy", -1) == 0.0 &&
           health.number_or("queue_depth", -1) == 0.0;
  })) << "workers_busy=" << health.number_or("workers_busy", -1)
      << " queue_depth=" << health.number_or("queue_depth", -1);
  (void)call(probe, "{\"type\":\"metrics\"}");
  EXPECT_EQ(metrics.gauge("service.workers_busy").value(), 0.0);
  EXPECT_EQ(metrics.gauge("service.queue_depth").value(), 0.0);
  const MeshbcastService::Counters counters = service.counters();
  EXPECT_EQ(counters.sheds, 0u);
  EXPECT_EQ(counters.errors, 0u);
  service.shutdown();
}

TEST(ServiceTest, WaitersRunInAdmissionOrderAndTheOverflowSheds) {
  // One permit and room for two waiters: A runs (parked at the gate), B
  // then C wait, D is shed.  Opening the gate runs A, B, C in that order.
  Gate gate;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.before_execute = [&] { gate.arrive(); };
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;

  constexpr std::size_t kAdmitted = 3;
  std::vector<JsonValue> responses(kAdmitted);
  std::vector<std::thread> threads;
  threads.reserve(kAdmitted);
  for (std::size_t i = 0; i < kAdmitted; ++i) {
    threads.emplace_back([&, i] {
      RpcClient client = connect_to(service);
      responses[i] = call(client, plan_request(i, i));
    });
    // The next request is sent only once this one is admitted: A has
    // reached the gate, B and C are counted in (and so hold a ticket).
    if (i == 0) {
      EXPECT_TRUE(eventually([&] { return gate.arrived() == 1; }));
    } else {
      EXPECT_TRUE(
          eventually([&] { return service.counters().requests == i + 1; }));
    }
  }
  RpcClient shed_client = connect_to(service);
  const JsonValue shed = call(shed_client, plan_request(9, 3));
  EXPECT_EQ(shed.find("error")->string_or("code", ""), "overloaded");

  gate.release();
  for (std::thread& thread : threads) thread.join();
  std::vector<std::uint64_t> admitted_order;
  for (const JsonValue& response : responses) {
    EXPECT_TRUE(response.bool_or("ok", false));
    admitted_order.push_back(
        static_cast<std::uint64_t>(response.number_or("req", 0)));
  }
  EXPECT_TRUE(std::is_sorted(admitted_order.begin(), admitted_order.end()));
  EXPECT_EQ(gate.order, admitted_order);
  EXPECT_EQ(service.counters().sheds, 1u);
  service.shutdown();
}

TEST(ServiceTest, DrainServesWaitersAndRefusesLaterFrames) {
  // A runs (parked), B waits for the permit; the drain starts.  A frame
  // sent now is refused with shutting_down, yet A and B -- admitted
  // before the drain -- still get ok replies before the drain returns.
  Gate gate;
  ServiceConfig config;
  config.workers = 1;
  config.before_execute = [&] { gate.arrive(); };
  MeshbcastService service(std::move(config));
  std::string error;
  ASSERT_TRUE(service.start(error)) << error;
  // Connected before the drain, which stops accepting.
  RpcClient late = connect_to(service);
  RpcClient probe = connect_to(service);

  JsonValue response_a, response_b;
  std::thread a([&] {
    RpcClient client = connect_to(service);
    response_a = call(client, plan_request(1, 0));
  });
  EXPECT_TRUE(eventually([&] { return gate.arrived() == 1; }));
  std::thread b([&] {
    RpcClient client = connect_to(service);
    response_b = call(client, plan_request(2, 1));
  });
  EXPECT_TRUE(eventually([&] { return service.counters().requests == 2; }));

  std::thread drain([&] { service.shutdown(); });
  EXPECT_TRUE(eventually([&] {
    return call(probe, "{\"type\":\"health\"}").string_or("status", "") ==
           "draining";
  }));
  const JsonValue refused = call(late, plan_request(3, 2));
  EXPECT_EQ(refused.find("error")->string_or("code", ""), "shutting_down");

  gate.release();
  a.join();
  b.join();
  drain.join();
  EXPECT_TRUE(response_a.bool_or("ok", false));
  EXPECT_TRUE(response_b.bool_or("ok", false));
  const MeshbcastService::Counters counters = service.counters();
  EXPECT_EQ(counters.served, 2u);
  EXPECT_EQ(counters.sheds, 0u);
  EXPECT_EQ(gate.order.size(), 2u);
}

}  // namespace
}  // namespace wsn
