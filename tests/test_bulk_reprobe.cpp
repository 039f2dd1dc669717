// The differential re-probe: BulkSimulator::rerun must return, field for
// field, what a full run of the edited plan returns -- on randomized
// lattices, tori, plans and edit sets, under every option the bulk engine
// takes, on both sides of its fallback to a full run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "protocol/implicit_plan.h"
#include "sim/bulk/bulk_simulator.h"
#include "sim/plan.h"
#include "topology/implicit.h"

namespace wsn {
namespace {

void expect_identical(const BroadcastOutcome& full,
                      const BroadcastOutcome& reprobe) {
  EXPECT_EQ(full.stats.num_nodes, reprobe.stats.num_nodes);
  EXPECT_EQ(full.stats.reached, reprobe.stats.reached);
  EXPECT_EQ(full.stats.tx, reprobe.stats.tx);
  EXPECT_EQ(full.stats.rx, reprobe.stats.rx);
  EXPECT_EQ(full.stats.duplicates, reprobe.stats.duplicates);
  EXPECT_EQ(full.stats.collisions, reprobe.stats.collisions);
  EXPECT_EQ(full.stats.lost_to_fading, reprobe.stats.lost_to_fading);
  EXPECT_EQ(full.stats.lost_to_crash, reprobe.stats.lost_to_crash);
  EXPECT_EQ(full.stats.delay, reprobe.stats.delay);
  EXPECT_EQ(full.stats.tx_energy, reprobe.stats.tx_energy);  // bitwise
  EXPECT_EQ(full.stats.rx_energy, reprobe.stats.rx_energy);  // bitwise
  EXPECT_EQ(full.first_rx, reprobe.first_rx);
  ASSERT_EQ(full.transmissions.size(), reprobe.transmissions.size());
  for (std::size_t i = 0; i < full.transmissions.size(); ++i) {
    const TxRecord& a = full.transmissions[i];
    const TxRecord& b = reprobe.transmissions[i];
    ASSERT_TRUE(a.slot == b.slot && a.node == b.node &&
                a.delivered == b.delivered && a.fresh == b.fresh)
        << "record " << i << ": (" << a.slot << ", " << a.node << ", "
        << a.delivered << ", " << a.fresh << ") vs (" << b.slot << ", "
        << b.node << ", " << b.delivered << ", " << b.fresh << ")";
  }
  EXPECT_EQ(full.node_energy, reprobe.node_energy);  // bitwise
}

/// How often each kind of first-reception change and each side of the
/// fallback came up, so the suites can require that every one did.
struct Coverage {
  std::size_t earlier = 0;   // a node first reached sooner
  std::size_t later = 0;     // a first reception destroyed, found later
  std::size_t lost = 0;      // a node no longer reached
  std::size_t gained = 0;    // a node reached that was not
  std::size_t reprobes = 0;  // reruns that stayed differential
  std::size_t fallbacks = 0;  // reruns that ran the plan in full
};

std::uint64_t span_count(const char* name) {
  for (const Profiler::SpanStats& s : Profiler::instance().snapshot()) {
    if (s.name == name) return s.count;
  }
  return 0;
}

/// Profiles the span counts for the duration of one suite.
class Counting {
 public:
  Counting() {
    Profiler::instance().reset();
    Profiler::instance().set_enabled(true);
  }
  ~Counting() {
    Profiler::instance().set_enabled(false);
    Profiler::instance().reset();
  }
  Counting(const Counting&) = delete;
  Counting& operator=(const Counting&) = delete;
};

/// One rerun checked against a full run: `before` ran as `prev`, and
/// `after` reruns naming `before`'s list at every node where it differs
/// from `base`'s in `before` or `after` -- so also at some where the two
/// agree -- plus a few more.
BroadcastOutcome check_rerun(BulkSimulator& sim, const ImplicitLattice& lat,
                             const RelayPlan& base,
                             const RelayPlan& before, const RelayPlan& after,
                             const BroadcastOutcome& prev,
                             const SimOptions& options, std::mt19937_64& rng,
                             Coverage& coverage) {
  std::vector<OffsetEdit> ran;
  for (NodeId v = 0; v < lat.num_nodes(); ++v) {
    const std::span<const Slot> b = base.offsets(v);
    const bool differs =
        !std::ranges::equal(b, before.offsets(v)) ||
        !std::ranges::equal(b, after.offsets(v));
    if (differs || rng() % 97 == 0) ran.push_back({v, before.offsets(v)});
  }
  const std::uint64_t runs = span_count("sim.bulk_simulate");
  BroadcastOutcome got = sim.rerun(lat, after, ran, prev, options);
  if (span_count("sim.bulk_simulate") == runs) {
    coverage.reprobes += 1;
  } else {
    coverage.fallbacks += 1;
  }
  BulkSimulator full(lat.num_nodes());
  const BroadcastOutcome want = full.run(lat, after, options);
  expect_identical(want, got);
  for (NodeId v = 0; v < lat.num_nodes(); ++v) {
    const Slot a = prev.first_rx[v];
    const Slot b = want.first_rx[v];
    if (a == b) continue;
    if (a == kNeverSlot) {
      coverage.gained += 1;
    } else if (b == kNeverSlot) {
      coverage.lost += 1;
    } else if (b < a) {
      coverage.earlier += 1;
    } else {
      coverage.later += 1;
    }
  }
  return got;
}

/// A random plan: each node a relay with probability `relay_share`, with
/// one to three increasing offsets up to 5; the source always sends.
RelayPlan random_plan(const ImplicitLattice& lat, NodeId source,
                      double relay_share, std::mt19937_64& rng) {
  RelayPlan::Writer plan(lat.num_nodes(), source);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Slot> offsets;
  for (NodeId v = 0; v < lat.num_nodes(); ++v) {
    if (v != source && coin(rng) >= relay_share) continue;
    offsets.clear();
    Slot last = 0;
    const std::size_t count = 1 + rng() % 3;
    for (std::size_t i = 0; i < count; ++i) {
      last += static_cast<Slot>(1 + (i == 0 && rng() % 2 == 0 ? 0 : rng() % 2));
      offsets.push_back(last);
    }
    plan.set(v, offsets);
  }
  return std::move(plan).finish();
}

/// `edits` random list edits of every kind the resolver makes and more:
/// an offset appended at a reached node (a repair) or at an unreached
/// one, a list pruned, a list replaced by one that may send sooner, and
/// the source given another transmission.
void edit_plan(RelayPlan& plan, const BroadcastOutcome& outcome,
               std::size_t edits, std::mt19937_64& rng) {
  const std::size_t n = plan.num_nodes();
  for (std::size_t e = 0; e < edits; ++e) {
    const auto v = static_cast<NodeId>(rng() % n);
    const std::span<const Slot> listed = plan.offsets(v);
    std::vector<Slot> offsets(listed.begin(), listed.end());
    switch (rng() % 5) {
      case 0:  // a repair: one more transmission after the last
        offsets.push_back((offsets.empty() ? 0 : offsets.back()) +
                          static_cast<Slot>(1 + rng() % 4));
        break;
      case 1:  // a new relay, reached or not
        if (outcome.first_rx[v] == kNeverSlot || offsets.empty()) {
          offsets = {static_cast<Slot>(1 + rng() % 2)};
        }
        break;
      case 2:  // pruned
        if (v != plan.source()) offsets.clear();
        break;
      case 3: {  // replaced
        const Slot first = static_cast<Slot>(1 + rng() % 3);
        offsets = {first};
        if (rng() % 2 == 0) offsets.push_back(first + 1 + static_cast<Slot>(rng() % 3));
        break;
      }
      default: {  // the source sends once more
        const Slot last = plan.offsets(plan.source()).back();
        plan.append_offset(plan.source(),
                           last + static_cast<Slot>(1 + rng() % 3));
        continue;
      }
    }
    plan.set_offsets(v, std::move(offsets));
  }
}

std::vector<ImplicitLattice> random_lattices(std::mt19937_64& rng) {
  const auto dim = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::vector<ImplicitLattice> out;
  for (int i = 0; i < 2; ++i) {
    out.push_back(ImplicitLattice::mesh2d3(dim(6, 30), dim(6, 30)));
    out.push_back(ImplicitLattice::mesh2d4(dim(6, 30), dim(6, 30)));
    out.push_back(ImplicitLattice::mesh2d8(dim(6, 30), dim(6, 30)));
    out.push_back(ImplicitLattice::mesh3d6(dim(3, 9), dim(3, 9), dim(3, 9)));
    out.push_back(ImplicitLattice::torus2d4(dim(3, 20), dim(3, 20)));
    out.push_back(ImplicitLattice::torus2d8(dim(3, 20), dim(3, 20)));
  }
  // Inexact spacing: every transmitter's cost comes from tx_range.
  out.push_back(ImplicitLattice::mesh2d8(dim(6, 20), dim(6, 20), 0.3));
  return out;
}

std::vector<SimOptions> option_sets() {
  SimOptions energy;
  energy.record_node_energy = true;
  energy.charge_collisions = true;
  SimOptions charged;
  charged.charge_collisions = true;
  SimOptions capped;
  capped.max_slots = 9;
  SimOptions capped_energy = energy;
  capped_energy.max_slots = 6;
  return {SimOptions{}, energy, charged, capped, capped_energy};
}

/// Plans of every shape on every lattice, with edit sets from one list to
/// a fifth of the nodes: one rerun from the unedited plan, then a second
/// from the first, whose `before` lists are themselves edited ones.
TEST(BulkReprobe, MatchesFullRunsOnRandomLatticesPlansAndEdits) {
  const Counting counting;
  std::mt19937_64 rng(1302'4059);
  Coverage coverage;
  for (const ImplicitLattice& lat : random_lattices(rng)) {
    const std::size_t n = lat.num_nodes();
    BulkSimulator sim(n);
    for (const SimOptions& options : option_sets()) {
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(lat.name() + " trial " + std::to_string(trial) +
                     " max_slots " + std::to_string(options.max_slots));
        const auto source = static_cast<NodeId>(rng() % n);
        const bool paper = trial % 3 == 0 && !lat.wrapped();
        const RelayPlan raw =
            paper ? implicit_protocol_plan(lat, source)
                  : random_plan(lat, source, trial % 3 == 1 ? 0.9 : 0.5, rng);
        const RelayPlan& base = raw;
        const BroadcastOutcome first = sim.run(lat, base, options);

        const std::size_t edits =
            trial % 2 == 0 ? 1 + rng() % 4 : 1 + rng() % (n / 5 + 1);
        RelayPlan once = raw;
        edit_plan(once, first, edits, rng);
        const BroadcastOutcome second = check_rerun(
            sim, lat, base, raw, once, first, options, rng, coverage);

        RelayPlan twice = once;
        edit_plan(twice, second, 1 + rng() % 3, rng);
        (void)check_rerun(sim, lat, base, once, twice, second, options, rng,
                          coverage);
      }
    }
  }
  EXPECT_GT(coverage.earlier, 0u);
  EXPECT_GT(coverage.later, 0u);
  EXPECT_GT(coverage.lost, 0u);
  EXPECT_GT(coverage.gained, 0u);
  EXPECT_GT(coverage.reprobes, 0u);
  EXPECT_GT(coverage.fallbacks, 0u);
}

// Targeted: on a 2D-4 row the source's left neighbour relays; pruning it
// destroys every first reception to its left, and giving the source a
// second transmission moves nothing earlier but adds duplicates -- then
// a relay further out is given an earlier offset.
TEST(BulkReprobe, DestroyedAndEarlierFirstReceptions) {
  const ImplicitLattice lat = ImplicitLattice::mesh2d4(40, 1);
  const NodeId source = 20;
  RelayPlan raw = RelayPlan::empty(lat.num_nodes(), source);
  for (NodeId v = 0; v < lat.num_nodes(); ++v) {
    if (v != source) raw.set_offsets(v, {2});
  }
  const RelayPlan& base = raw;
  BulkSimulator sim(lat.num_nodes());
  SimOptions energy;
  energy.record_node_energy = true;
  const BroadcastOutcome first = sim.run(lat, base, energy);
  ASSERT_EQ(first.stats.reached, lat.num_nodes());

  RelayPlan pruned = raw;
  pruned.clear_offsets(19);
  pruned.append_offset(source, 4);
  std::mt19937_64 rng(7);
  Coverage coverage;
  const BroadcastOutcome second = check_rerun(
      sim, lat, base, raw, pruned, first, energy, rng, coverage);
  EXPECT_EQ(second.stats.reached, 21u);  // nodes 19..39
  EXPECT_GT(coverage.lost, 0u);

  RelayPlan sooner = pruned;
  for (NodeId v = 21; v < 30; ++v) sooner.set_offsets(v, {1});
  coverage = {};
  (void)check_rerun(sim, lat, base, pruned, sooner, second, energy, rng,
                    coverage);
  EXPECT_GT(coverage.earlier, 0u);
}

// An overlay that changes nothing returns the previous outcome.
TEST(BulkReprobe, EmptyEditReturnsThePreviousOutcome) {
  const ImplicitLattice lat = ImplicitLattice::mesh2d8(33, 21);
  const RelayPlan raw = implicit_protocol_plan(lat, lat.central_node());
  const RelayPlan& base = raw;
  BulkSimulator sim(lat.num_nodes());
  const BroadcastOutcome first = sim.run(lat, base);
  expect_identical(first, sim.rerun(lat, base, {}, first));
  const std::vector<OffsetEdit> same = {{5, raw.offsets(5)}};
  expect_identical(first, sim.rerun(lat, base, same, first));
}

}  // namespace
}  // namespace wsn
