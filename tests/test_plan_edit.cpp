// The plan's edit overlay against a plain per-node model: seeded random
// set / append / clear / undo sequences on paper plans of all four
// families, every read checked after every edit, and both engines
// running an edited plan exactly as they run the same lists written
// afresh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fault/models.h"
#include "protocol/implicit_plan.h"
#include "sim/bulk/bulk_simulator.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/implicit.h"

namespace wsn {
namespace {

using Model = std::vector<std::vector<Slot>>;

Model model_of(const RelayPlan& plan) {
  Model model(plan.num_nodes());
  for (NodeId v = 0; v < plan.num_nodes(); ++v) {
    const std::span<const Slot> offsets = plan.offsets(v);
    model[v].assign(offsets.begin(), offsets.end());
  }
  return model;
}

RelayPlan written(const Model& model, NodeId source) {
  RelayPlan::Writer out(model.size(), source);
  for (NodeId v = 0; v < model.size(); ++v) out.set(v, model[v]);
  return std::move(out).finish();
}

bool bit(std::span<const std::uint64_t> set, NodeId v) {
  return (set[v / 64] >> (v % 64) & 1u) != 0;
}

/// Every read of `plan` agrees with `model`.
void expect_matches(const RelayPlan& plan, const Model& model) {
  ASSERT_EQ(plan.num_nodes(), model.size());
  std::size_t planned = 0;
  std::size_t relays = 0;
  for (NodeId v = 0; v < model.size(); ++v) {
    const std::vector<Slot>& want = model[v];
    ASSERT_TRUE(std::ranges::equal(plan.offsets(v), want)) << "node " << v;
    const bool plain = want == std::vector<Slot>{1};
    ASSERT_EQ(plan.is_relay(v), !want.empty()) << "node " << v;
    ASSERT_EQ(bit(plan.plain_relays(), v), plain) << "node " << v;
    ASSERT_EQ(bit(plan.other_relays(), v), !plain && !want.empty())
        << "node " << v;
    planned += want.size();
    if (!want.empty()) ++relays;
  }
  EXPECT_EQ(plan.planned_tx(), planned);
  EXPECT_EQ(plan.total_offsets(), planned);
  EXPECT_EQ(plan.relay_count(), relays);
  plan.validate();
}

void expect_identical(const BroadcastOutcome& a, const BroadcastOutcome& b) {
  EXPECT_EQ(a.stats.num_nodes, b.stats.num_nodes);
  EXPECT_EQ(a.stats.reached, b.stats.reached);
  EXPECT_EQ(a.stats.tx, b.stats.tx);
  EXPECT_EQ(a.stats.rx, b.stats.rx);
  EXPECT_EQ(a.stats.duplicates, b.stats.duplicates);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
  EXPECT_EQ(a.stats.lost_to_fading, b.stats.lost_to_fading);
  EXPECT_EQ(a.stats.lost_to_crash, b.stats.lost_to_crash);
  EXPECT_EQ(a.stats.delay, b.stats.delay);
  EXPECT_EQ(a.stats.tx_energy, b.stats.tx_energy);  // bitwise
  EXPECT_EQ(a.stats.rx_energy, b.stats.rx_energy);  // bitwise
  EXPECT_EQ(a.first_rx, b.first_rx);
  ASSERT_EQ(a.transmissions.size(), b.transmissions.size());
  for (std::size_t i = 0; i < a.transmissions.size(); ++i) {
    const TxRecord& x = a.transmissions[i];
    const TxRecord& y = b.transmissions[i];
    ASSERT_TRUE(x.slot == y.slot && x.node == y.node &&
                x.delivered == y.delivered && x.fresh == y.fresh)
        << "record " << i;
  }
  EXPECT_EQ(a.node_energy, b.node_energy);  // bitwise
}

/// A list a relay might hold: one to three increasing offsets up to 9.
std::vector<Slot> random_list(std::mt19937_64& rng) {
  std::vector<Slot> list;
  Slot last = 0;
  for (std::size_t k = 1 + rng() % 3; k > 0; --k) {
    last += static_cast<Slot>(1 + rng() % 3);
    list.push_back(last);
  }
  return list;
}

/// Runs `ops` random edits on `plan`, mirrored on `model`, checking every
/// read after each.  Undo restores the list an earlier edit replaced,
/// newest first, as the resolver's undo log does.
void random_edits(RelayPlan& plan, Model& model, std::size_t ops,
                  std::mt19937_64& rng) {
  std::vector<std::pair<NodeId, std::vector<Slot>>> undo;
  const auto n = static_cast<NodeId>(model.size());
  for (std::size_t op = 0; op < ops; ++op) {
    // Edits gather on a few nodes as well as spreading over all of them.
    const NodeId v = rng() % 2 == 0 ? static_cast<NodeId>(rng() % n)
                                    : static_cast<NodeId>(rng() % 8);
    std::vector<Slot>& list = model[v];
    switch (rng() % 4) {
      case 0: {  // set
        undo.emplace_back(v, list);
        list = random_list(rng);
        plan.set_offsets(v, list);
        break;
      }
      case 1: {  // append
        undo.emplace_back(v, list);
        const Slot offset = (list.empty() ? 0 : list.back()) +
                            static_cast<Slot>(1 + rng() % 4);
        list.push_back(offset);
        plan.append_offset(v, offset);
        break;
      }
      case 2:  // clear
        if (v == plan.source()) continue;
        undo.emplace_back(v, list);
        list.clear();
        plan.clear_offsets(v);
        break;
      default:  // undo
        if (undo.empty()) continue;
        model[undo.back().first] = undo.back().second;
        plan.set_offsets(undo.back().first, std::move(undo.back().second));
        undo.pop_back();
        break;
    }
    SCOPED_TRACE("op " + std::to_string(op));
    expect_matches(plan, model);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

struct Case {
  const char* family;
  int m, n, l;
};

constexpr Case kCases[] = {{"2D-3", 14, 11, 1},
                           {"2D-4", 17, 12, 1},
                           {"2D-8", 13, 15, 1},
                           {"3D-6", 6, 5, 7}};

TEST(PlanEdit, RandomEditsMatchAPlainListModel) {
  std::mt19937_64 rng(3304'2003);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.family);
    const ImplicitLattice lat = ImplicitLattice::make(c.family, c.m, c.n, c.l);
    for (int trial = 0; trial < 3; ++trial) {
      const auto source = static_cast<NodeId>(rng() % lat.num_nodes());
      RelayPlan plan = implicit_protocol_plan(lat, source);
      Model model = model_of(plan);
      expect_matches(plan, model);
      random_edits(plan, model, 150, rng);
      if (HasFatalFailure()) return;
      EXPECT_EQ(plan, written(model, source));
    }
  }
}

TEST(PlanEdit, EnginesRunAnEditedPlanAsItsListsWrittenAfresh) {
  std::mt19937_64 rng(1302'4059);
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.family);
    const std::unique_ptr<Topology> topo = make_mesh(c.family, c.m, c.n, c.l);
    const ImplicitLattice lat = ImplicitLattice::make(c.family, c.m, c.n, c.l);
    const std::size_t n = lat.num_nodes();
    Simulator sim(n);
    BulkSimulator bulk(n);
    for (int trial = 0; trial < 4; ++trial) {
      const auto source = static_cast<NodeId>(rng() % n);
      RelayPlan plan = implicit_protocol_plan(lat, source);
      Model model = model_of(plan);
      random_edits(plan, model, 40, rng);
      if (HasFatalFailure()) return;
      ASSERT_GT(plan.edited_count(), 0u);
      const RelayPlan fresh = written(model, source);

      SimOptions energy;
      energy.record_node_energy = true;
      expect_identical(sim.run(*topo, fresh, energy),
                       sim.run(*topo, plan, energy));
      expect_identical(bulk.run(lat, fresh, energy),
                       bulk.run(lat, plan, energy));

      // Loss and crashes: the same seeded models, rebuilt for each run.
      const auto faulted = [&](const RelayPlan& p) {
        IidLossModel loss(0.2, 77 + static_cast<std::uint64_t>(trial));
        CrashScheduleModel crashes = CrashScheduleModel::sample(
            n, 0.1, 12, 3, 91 + static_cast<std::uint64_t>(trial));
        CompositeFaultModel faults({&loss, &crashes});
        SimOptions options;
        options.faults = &faults;
        return sim.run(*topo, p, options);
      };
      expect_identical(faulted(fresh), faulted(plan));
    }
  }
}

}  // namespace
}  // namespace wsn
