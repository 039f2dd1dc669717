// Byte goldens for the two simulator consumers whose output no other
// suite pins down exactly: pipelined broadcasts (every PipelineOutcome
// field plus a digest of the full event stream) and echo-repair plans.
// The dumps under tests/golden/ come from the separate pipeline engine
// and decode replay that the shared slot loop replaced; any drift in the
// medium, the deferral rule, fault attribution or the repair placement
// shows up as a differing line.
//
// On a mismatch the test writes what it produced into the gtest temp
// directory and names the file, so an intended change can be reviewed
// with a plain diff against the committed golden.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/models.h"
#include "fault/recovery.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "sim/pipeline.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"

namespace wsn {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Compares `actual` with the committed golden `name`; on a mismatch
/// saves `actual` for diffing and fails with the first differing line.
void expect_matches_golden(const std::string& actual,
                           const std::string& name) {
  const std::filesystem::path golden_path =
      std::filesystem::path(WSN_REPO_DIR) / "tests" / "golden" / name;
  const std::string golden = read_file(golden_path);
  if (actual == golden) return;

  const std::filesystem::path out_path =
      std::filesystem::path(::testing::TempDir()) / name;
  std::ofstream(out_path, std::ios::binary) << actual;
  std::istringstream a(actual);
  std::istringstream g(golden);
  std::string a_line;
  std::string g_line;
  std::size_t line = 1;
  while (std::getline(g, g_line)) {
    if (!std::getline(a, a_line) || a_line != g_line) break;
    ++line;
  }
  FAIL() << name << " differs from the golden at line " << line
         << "\n  golden: " << g_line << "\n  actual: " << a_line
         << "\n  full output written to " << out_path;
}

struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (value >> (8 * byte)) & 0xffu;
      state *= 0x100000001b3ull;
    }
  }
};

std::string format_stats(const BroadcastStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu reached=%zu tx=%zu rx=%zu dup=%zu coll=%zu fade=%zu "
                "crash=%zu delay=%u etx=%.17g erx=%.17g",
                s.num_nodes, s.reached, s.tx, s.rx, s.duplicates,
                s.collisions, s.lost_to_fading, s.lost_to_crash, s.delay,
                s.tx_energy, s.rx_energy);
  return buf;
}

std::string format_outcome(const PipelineOutcome& out) {
  std::string line = "agg " + format_stats(out.aggregate);
  for (std::size_t p = 0; p < out.per_packet.size(); ++p) {
    line += " | p" + std::to_string(p) + " " + format_stats(out.per_packet[p]);
  }
  return line;
}

/// The fault mixes of the grid; each call builds fresh models so no state
/// leaks between configurations.
struct FaultMix {
  std::vector<std::unique_ptr<FaultModel>> parts;
  std::unique_ptr<CompositeFaultModel> composite;

  FaultModel* model() {
    if (composite != nullptr) return composite.get();
    return parts.empty() ? nullptr : parts.front().get();
  }
};

FaultMix make_fault_mix(int mix, std::size_t num_nodes) {
  FaultMix out;
  switch (mix) {
    case 1:
      out.parts.push_back(std::make_unique<IidLossModel>(0.1, 11));
      break;
    case 2:
      out.parts.push_back(std::make_unique<GilbertElliottModel>(
          GilbertElliottModel::from_mean_loss(0.15, 4.0, 12)));
      break;
    case 3: {
      out.parts.push_back(std::make_unique<IidLossModel>(0.1, 13));
      out.parts.push_back(std::make_unique<CrashScheduleModel>(
          CrashScheduleModel::sample(num_nodes, 0.05, 40, 6, 14)));
      out.composite = std::make_unique<CompositeFaultModel>(
          std::vector<FaultModel*>{out.parts[0].get(), out.parts[1].get()});
      break;
    }
    default:
      break;
  }
  return out;
}

constexpr const char* kFaultNames[] = {"perfect", "iid0.1", "ge0.15/4",
                                       "iid0.1+crash"};

// Four paper meshes x {centre, corner, n/3} x packets {1,2,3,5} x
// intervals {1,2,3,4,6,9,64} x four fault mixes.  Each line carries the
// whole PipelineOutcome and a digest of the observed event stream; the
// unobserved run must produce the same outcome.
TEST(PipelineGolden, OutcomesAndEventStreamsMatchTheCommittedBytes) {
  std::string dump;
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    const std::size_t n = topo->num_nodes();
    const NodeId sources[] = {graph_center(*topo), 0,
                              static_cast<NodeId>(n / 3)};
    for (const NodeId src : sources) {
      const RelayPlan plan = paper_plan(*topo, src);
      for (const std::size_t packets : {1u, 2u, 3u, 5u}) {
        for (const Slot interval : {1u, 2u, 3u, 4u, 6u, 9u, 64u}) {
          for (int mix = 0; mix < 4; ++mix) {
            PipelineOptions options;
            options.packets = packets;
            options.interval = interval;

            FaultMix plain_faults = make_fault_mix(mix, n);
            options.sim.faults = plain_faults.model();
            const PipelineOutcome plain =
                simulate_pipeline(*topo, plan, options);

            FaultMix observed_faults = make_fault_mix(mix, n);
            EventSink sink;
            Observer observer(&sink);
            options.sim.faults = observed_faults.model();
            options.sim.observer = &observer;
            const PipelineOutcome observed =
                simulate_pipeline(*topo, plan, options);

            const std::string outcome = format_outcome(observed);
            ASSERT_EQ(format_outcome(plain), outcome)
                << family << " src " << src << " packets " << packets
                << " interval " << interval << " " << kFaultNames[mix];
            ASSERT_EQ(sink.dropped(), 0u);

            Fnv1a events;
            for (const Event& e : sink.events()) {
              events.add(e.slot);
              events.add(static_cast<std::uint64_t>(e.kind));
              events.add(e.node);
              events.add(e.peer);
              events.add(e.packet);
              events.add(e.detail);
            }
            char head[160];
            std::snprintf(head, sizeof(head),
                          "%s src=%u packets=%zu interval=%u fault=%s "
                          "events=%" PRIu64 " digest=%016" PRIx64 " | ",
                          family.c_str(), src, packets, interval,
                          kFaultNames[mix], sink.total(), events.state);
            dump += head + outcome + "\n";
          }
        }
      }
    }
  }
  expect_matches_golden(dump, "pipeline_golden.txt");
}

// echo_repair over every fifth source of each paper family: the repaired
// plan's planned_tx and a digest of every node's offsets.
TEST(EchoRepairGolden, PlansMatchTheCommittedBytes) {
  std::string dump;
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    for (NodeId src = 0; src < topo->num_nodes(); src += 5) {
      const RelayPlan plan = echo_repair(*topo, paper_plan(*topo, src));
      Fnv1a offsets;
      for (NodeId v = 0; v < plan.num_nodes(); ++v) {
        offsets.add(plan.offsets(v).size());
        for (Slot offset : plan.offsets(v)) offsets.add(offset);
      }
      char line[128];
      std::snprintf(line, sizeof(line),
                    "%s src=%u planned_tx=%zu offsets=%016" PRIx64 "\n",
                    family.c_str(), src, plan.planned_tx(), offsets.state);
      dump += line;
    }
  }
  expect_matches_golden(dump, "echo_repair_golden.txt");
}

}  // namespace
}  // namespace wsn
