// meshbench: runs one named workload and prints its metrics.
//
//   meshbench --workload lossy-arq --seed 7 --seconds 30 --trace 0
//             --scratch <dir> [--rev <git rev>] [--source-digest <hex>]
//
// stdout: a host line, a detail line (percentile sample counts, per-layer
// map, failure reasons) and, last, the result line
// {"correct","attempted","failed","metrics"}.  Exit status 0 only when
// every output check passed.  run.py builds this binary and calls it.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

namespace {

// Set-up is timed on fresh instances in two batches, one before the
// warm-up and one after the measurement, so a slow first second of the
// process does not set the median.  A batch repeats set-up until
// kSetupBudgetS seconds of wall time -- tearing the previous instance down
// included -- have passed (at least kMinSetupRounds, at most
// kMaxSetupRounds times), so a cheap set-up's median rests on many samples
// and a slow teardown stays bounded.
constexpr double kSetupBudgetS = 0.5;
constexpr std::size_t kMinSetupRounds = 5;
constexpr std::size_t kMaxSetupRounds = 200;

struct Args {
  meshbench::Options options;
  std::string rev = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "meshbench: " << why
            << "\nusage: meshbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --scratch <dir> [--rev <rev>]"
               " [--source-digest <hex>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.options.trace = value == "1";
      } else if (flag == "--scratch") {
        args.options.scratch = value;
        have_scratch = true;
      } else if (flag == "--rev") {
        args.rev = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_scratch) usage("--workload and --scratch are required");
  if (!(args.options.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::unique_ptr<meshbench::Workload> make_workload(
    const meshbench::Options& options) {
  if (options.workload == "lossy-arq") return meshbench::make_lossy_arq(options);
  if (options.workload == "service-mix") return meshbench::make_service_mix(options);
  if (options.workload == "bulk-1m") return meshbench::make_bulk_1m(options);
  usage("unknown workload " + options.workload);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// One batch of timed set-ups; returns the last instance, set up.
std::unique_ptr<meshbench::Workload> time_setups(
    const meshbench::Options& options, std::vector<double>& setups) {
  std::unique_ptr<meshbench::Workload> workload;
  const auto batch_start = std::chrono::steady_clock::now();
  for (std::size_t rounds = 0;
       rounds < kMinSetupRounds ||
       (meshbench::seconds_since(batch_start) < kSetupBudgetS &&
        rounds < kMaxSetupRounds);
       ++rounds) {
    workload.reset();
    const auto start = std::chrono::steady_clock::now();
    workload = make_workload(options);
    workload->setup();
    setups.push_back(meshbench::seconds_since(start));
  }
  return workload;
}

std::string host_line(const Args& args) {
  wsn::JsonWriter w;
  w.begin_object().key("host").begin_object();
  w.member("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .member("compiler", MESHBENCH_COMPILER)
      .member("build_type", MESHBENCH_BUILD_TYPE)
      .member("git_rev", args.rev)
      .member("source_digest", args.source_digest);
  w.end_object().end_object();
  return std::move(w).str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const meshbench::Options& options = args.options;
  meshbench::Ledger ledger;
  try {
    std::filesystem::create_directories(options.scratch);
    meshbench::Result result;

    // Set-up, many times on fresh instances; the median is setup_s.
    std::vector<double> setups;
    std::unique_ptr<meshbench::Workload> workload = time_setups(options, setups);
    workload->prepare_checks();

    const auto warm_start = std::chrono::steady_clock::now();
    workload->warmup(ledger);
    const double warmup_s = meshbench::seconds_since(warm_start);

    if (options.trace) {
      workload->trace(options.seconds, ledger, result);
      result.set("bench.warmup_s", warmup_s);
      // Layers a workload never enters report zero work.
      for (const meshbench::LayerMetric& m : meshbench::per_layer_metrics()) {
        if (!result.has(m.name)) result.set(m.name, 0.0);
      }
    } else {
      workload->measure(options.seconds, ledger, result);
      result.set("peak_rss_mb", peak_rss_mb());
      workload.reset();
      (void)time_setups(options, setups);
      result.set("setup_s", meshbench::median(setups));
      // Every workload reports every end-to-end metric.
      for (const meshbench::EndToEndMetric& m : meshbench::end_to_end_metrics()) {
        if (!result.has(m.name)) {
          throw std::logic_error("metric " + std::string(m.name) + " missing");
        }
      }
    }
    workload.reset();

    const bool correct = ledger.failed == 0 && ledger.attempted > 0;
    std::cout << host_line(args) << '\n'
              << result.detail_line(options.workload, options.seed,
                                    options.trace, ledger)
              << '\n'
              << result.final_line(ledger, correct) << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "meshbench: " << options.workload << ": " << e.what() << '\n';
    for (const std::string& error : ledger.errors) std::cerr << "  " << error << '\n';
    return 2;
  }
}
