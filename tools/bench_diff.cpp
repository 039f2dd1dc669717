// Bench comparison and regression gate CLI (analysis/bench_doc.h).
//
//   $ bench_diff A.json B.json [--tolerance 0.05] [--json-out diff.json]
//   $ bench_diff bench/baselines . --tolerance 0.6 --json-out gate.json
//
// Diffs two BENCH documents, or every BENCH_*.json of two directories
// against its namesake, metric by metric: every numeric member of every
// result row, with a direction-aware verdict (improved / regressed / equal
// within tolerance / only on one side).  Reads as "how did B move
// relative to A" -- point A at the baseline or the pre-change run.  Exit
// status: 0 when the gate passes, 1 when a gated (higher-is-better)
// metric regressed or a document could not be compared, 2 on usage
// errors.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/bench_doc.h"
#include "common/cli.h"

int main(int argc, char** argv) {
  wsn::CliParser cli("bench_diff",
                     "diff two BENCH documents or directories of them", 2);
  cli.add_option("tolerance",
                 "fractional band treated as equal (|b/a - 1|)", "0.05");
  cli.add_option("json-out", "write the meshbcast.bench.diff JSON here"
                 " ('' = skip)", "");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.positional().size() != 2) {
    std::fprintf(stderr, "bench_diff: expected two files or two directories"
                         " (A B)\n");
    return 2;
  }
  wsn::DiffOptions options;
  options.tolerance = cli.get_f64("tolerance");
  if (options.tolerance < 0.0 || options.tolerance >= 1.0) {
    std::fprintf(stderr, "tolerance must be in [0, 1)\n");
    return 2;
  }

  const std::string& a = cli.positional()[0];
  const std::string& b = cli.positional()[1];
  const bool dir_a = std::filesystem::is_directory(a);
  if (dir_a != std::filesystem::is_directory(b)) {
    std::fprintf(stderr, "bench_diff: %s and %s must both be files or both"
                         " directories\n", a.c_str(), b.c_str());
    return 2;
  }
  const wsn::DiffReport report = dir_a
                                     ? wsn::diff_bench_dirs(a, b, options)
                                     : wsn::diff_bench_files(a, b, options);
  std::printf("%s", wsn::diff_text(report).c_str());

  const std::string json_path = cli.get("json-out");
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    wsn::write_diff_json(out, report, options);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return report.passed() ? 0 : 1;
}
