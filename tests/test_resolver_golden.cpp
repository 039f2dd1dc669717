// Byte golden for the collision-repair resolver.  The reference resolver
// (resolve_full_reachability on a Topology) and the implicit one
// (implicit_paper_plan on an ImplicitLattice) share one algorithm, so a
// change to it moves both at once and ImplicitPlan.ResolvedPlanMatches-
// PaperPlan cannot see it.  This dump pins each resolved plan (a digest
// of every node's offsets) and the whole ResolveReport against bytes
// committed under tests/golden/.
//
// The grid covers every source of the four paper meshes under the paper
// protocol and under CDS, the implicit resolver on larger lattices, and
// seeded gossip plans on meshes and random geometric graphs.  CDS with a
// forwarding stagger is what drives the optimistic phase to run out of
// patience and fall back to the best plan it saw (about twenty of these
// resolves do); the disconnected random graphs take the `unreachable`
// branch.
//
// On a mismatch the test writes what it produced into the gtest temp
// directory and names the file, so an intended change can be reviewed
// with a plain diff against the committed golden.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "protocol/cds_broadcast.h"
#include "protocol/gossip.h"
#include "protocol/implicit_plan.h"
#include "protocol/registry.h"
#include "protocol/resolver.h"
#include "topology/factory.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/random_geometric.h"

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

/// One golden line: the case label, the source, the four ResolveReport
/// fields (repairs, rounds, unreachable, unrepaired), the plan's
/// planned_tx and an FNV-1a digest of every node's offset list.
std::string resolve_line(const std::string& label, NodeId src,
                         const RelayPlan& plan, const ResolveReport& r) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto add = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  add(plan.source);
  for (const auto& offsets : plan.tx_offsets) {
    add(offsets.size());
    for (const Slot offset : offsets) add(offset);
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s src=%u report=%zu/%zu/%zu/%zu tx=%zu plan=%016" PRIx64
                "\n",
                label.c_str(), src, r.repairs, r.rounds, r.unreachable,
                r.unrepaired, plan.planned_tx(), digest);
  return line;
}

std::string resolve_dump() {
  std::string dump;
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    for (NodeId src = 0; src < topo->num_nodes(); ++src) {
      ResolveReport report;
      const RelayPlan plan = paper_plan(*topo, src, {}, &report);
      dump += resolve_line(family + " paper", src, plan, report);
    }
    const CdsBroadcast cds;
    for (NodeId src = 0; src < topo->num_nodes(); ++src) {
      ResolveReport report;
      const RelayPlan plan = resolve_full_reachability(
          *topo, cds.plan(*topo, src), {}, &report);
      dump += resolve_line(family + " cds", src, plan, report);
    }
  }

  const struct {
    const char* family;
    Slot stagger;
    std::uint64_t seeds;
  } staggered[] = {{"2D-4", 2, 2}, {"2D-8", 1, 4}, {"3D-6", 2, 4}};
  for (const auto& c : staggered) {
    const auto topo = make_paper_topology(c.family);
    for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
      const CdsBroadcast cds(c.stagger, seed);
      char label[64];
      std::snprintf(label, sizeof(label), "%s cds stagger=%u seed=%" PRIu64,
                    c.family, c.stagger, seed);
      for (NodeId src = 0; src < topo->num_nodes(); ++src) {
        ResolveReport report;
        const RelayPlan plan = resolve_full_reachability(
            *topo, cds.plan(*topo, src), {}, &report);
        dump += resolve_line(label, src, plan, report);
      }
    }
  }

  const struct {
    const char* family;
    int m, n, l;
  } lattices[] = {{"2D-3", 61, 43, 1},   {"2D-3", 200, 150, 1},
                  {"2D-4", 90, 71, 1},   {"2D-8", 101, 77, 1},
                  {"2D-8", 300, 200, 1}, {"3D-6", 13, 11, 9}};
  for (const auto& c : lattices) {
    const ImplicitLattice lat = ImplicitLattice::make(c.family, c.m, c.n, c.l);
    const NodeId sources[] = {0, lat.central_node(),
                              static_cast<NodeId>(lat.num_nodes() - 1)};
    for (const NodeId src : sources) {
      ResolveReport report;
      const RelayPlan plan = implicit_paper_plan(lat, src, {}, &report);
      dump += resolve_line(lat.name() + " implicit", src, plan, report);
    }
  }

  const Mesh2D4 mesh(11, 9);
  const Mesh2D3 brick(12, 10);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const Topology* topo :
         std::initializer_list<const Topology*>{&mesh, &brick}) {
      const NodeId src =
          static_cast<NodeId>((seed * 37) % topo->num_nodes());
      for (const double p : {0.15, 0.35}) {
        ResolveReport report;
        const RelayPlan plan = resolve_full_reachability(
            *topo, Gossip(p, 2, seed).plan(*topo, src), {}, &report);
        char label[96];
        std::snprintf(label, sizeof(label), "%s gossip%g",
                      topo->name().c_str(), p);
        dump += resolve_line(label, src, plan, report);
      }
    }
  }
  // On an 8 m square, radius 1.6 leaves many of these graphs disconnected
  // and 2.2 mostly connected; the dense 160-node graphs under eager gossip
  // crowd the slots after a helper so some optimistic repairs find no
  // quiet slot.
  const struct {
    std::size_t count;
    Meters radius;
    double p;
    Slot jitter;
  } random_graphs[] = {{90, 1.6, 0.3, 3}, {90, 2.2, 0.3, 3},
                       {160, 3.0, 0.6, 1}};
  for (const auto& c : random_graphs) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      const RandomGeometric topo(c.count, 8.0, c.radius, seed * 1000 + 7);
      for (const NodeId src : {NodeId{0}, NodeId{45}}) {
        ResolveReport report;
        const RelayPlan plan = resolve_full_reachability(
            topo, Gossip(c.p, c.jitter, seed).plan(topo, src), {}, &report);
        char label[96];
        std::snprintf(label, sizeof(label), "%s gossip%g", topo.name().c_str(),
                      c.p);
        dump += resolve_line(label, src, plan, report);
      }
    }
  }
  return dump;
}

TEST(ResolverGolden, PlansAndReportsMatchTheCommittedBytes) {
  expect_matches_golden(resolve_dump(), "resolver_golden.txt");
}

}  // namespace
}  // namespace wsn
