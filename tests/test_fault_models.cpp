#include "fault/models.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/fault_draw.h"
#include "fault/link_estimator.h"
#include "topology/factory.h"

namespace wsn {
namespace {

// ---- oracle -------------------------------------------------------------
// A frozen copy of the models' original counter-mode draw: four full
// splitmix64 rounds over (seed, a, b, c), mapped to a 53-bit mantissa.
// The models may compute it faster, never differently -- every lossy
// scenario record downstream depends on these exact bits.

std::uint64_t oracle_splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double oracle_canonical(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c) {
  std::uint64_t state = seed;
  std::uint64_t mixed = oracle_splitmix(state);
  state ^= mixed + a;
  mixed = oracle_splitmix(state);
  state ^= mixed + b;
  mixed = oracle_splitmix(state);
  state ^= mixed + c;
  const std::uint64_t bits = oracle_splitmix(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t oracle_link(NodeId tx, NodeId rx) {
  return (static_cast<std::uint64_t>(tx) << 32) | rx;
}

struct OracleIid {
  double loss;
  std::uint64_t seed;

  bool delivers(NodeId tx, NodeId rx, Slot slot) {
    if (loss <= 0.0) return true;
    return oracle_canonical(seed, oracle_link(tx, rx), slot, 0x11d) >= loss;
  }
  void begin_run() {}
};

// The Gilbert-Elliott chain as first written: per-link (slot, state)
// memo in an ordered map, advanced forward, replayed from slot 0 on an
// out-of-order query.
struct OracleGe {
  double p_gb, p_bg, loss_good, loss_bad;
  std::uint64_t seed;
  std::map<std::uint64_t, std::pair<Slot, bool>> chains;

  bool delivers(NodeId tx, NodeId rx, Slot slot) {
    const std::uint64_t key = oracle_link(tx, rx);
    auto& [at, bad] = chains[key];
    if (slot < at) {
      at = 0;
      bad = false;
    }
    while (at < slot) {
      at += 1;
      const double u = oracle_canonical(seed, key, at, 0x6eb);
      bad = bad ? u >= p_bg : u < p_gb;
    }
    const double loss = bad ? loss_bad : loss_good;
    if (loss <= 0.0) return true;
    return oracle_canonical(seed, key, slot, 0x105) >= loss;
  }
  void begin_run() { chains.clear(); }
};

// from_mean_loss's parameterisation, restated.
OracleGe oracle_ge_from_mean(double mean_loss, double mean_burst,
                             std::uint64_t seed) {
  const double p_bg = 1.0 / mean_burst;
  const double pi_b = mean_loss / 0.9;
  const double p_gb = p_bg * pi_b / (1.0 - pi_b);
  return OracleGe{std::min(p_gb, 1.0), p_bg, 0.0, 0.9, seed, {}};
}

struct Query {
  NodeId tx;
  NodeId rx;
  Slot slot;
};

// Seeded query sequences in the shapes the callers produce.
std::vector<Query> in_order_queries(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Query> out;
  for (int link = 0; link < 6; ++link) {
    const auto tx = static_cast<NodeId>(rng.below(600));
    const auto rx = static_cast<NodeId>(rng.below(600));
    for (Slot s = 1; s <= 120; s += 1 + static_cast<Slot>(rng.below(3))) {
      out.push_back({tx, rx, s});
    }
  }
  return out;
}

std::vector<Query> out_of_order_queries(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < 600; ++i) {
    const auto tx = static_cast<NodeId>(rng.below(3));
    out.push_back({tx, tx + 1, static_cast<Slot>(rng.below(250))});
  }
  return out;
}

std::vector<Query> interleaved_queries(std::uint64_t seed) {
  // Simulator-shaped: slot by slot, a random subset of links fires, and
  // a link may be queried twice in a row or revisited slots later.
  Xoshiro256 rng(seed);
  std::vector<Query> out;
  for (Slot s = 0; s < 150; ++s) {
    for (NodeId tx = 0; tx < 8; ++tx) {
      if (!rng.chance(0.4)) continue;
      const auto rx = static_cast<NodeId>(8 + rng.below(4));
      out.push_back({tx, rx, s});
      if (rng.chance(0.2)) out.push_back({tx, rx, s});
    }
  }
  return out;
}

template <typename Model, typename Oracle>
void expect_matches_oracle(Model& model, Oracle& oracle,
                           const std::vector<Query>& queries) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    ASSERT_EQ(model.link_delivers(q.tx, q.rx, q.slot),
              oracle.delivers(q.tx, q.rx, q.slot))
        << "query " << i << ": " << q.tx << "->" << q.rx << " @" << q.slot;
  }
}

template <typename Model, typename Oracle>
void expect_all_shapes_match(Model& model, Oracle& oracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_matches_oracle(model, oracle, in_order_queries(seed));
    expect_matches_oracle(model, oracle, out_of_order_queries(seed));
    expect_matches_oracle(model, oracle, interleaved_queries(seed));
    model.begin_run();
    oracle.begin_run();
    expect_matches_oracle(model, oracle, interleaved_queries(seed + 10));
    expect_matches_oracle(model, oracle, in_order_queries(seed + 10));
  }
}

TEST(FaultOracle, IidMatchesTheFrozenDraw) {
  for (const double loss : {0.05, 0.3, 0.75}) {
    for (const std::uint64_t seed : {0ull, 17ull, 0xdeadbeefcafef00dull}) {
      IidLossModel model(loss, seed);
      OracleIid oracle{loss, seed};
      expect_all_shapes_match(model, oracle);
    }
  }
}

TEST(FaultOracle, GilbertElliottMatchesTheFrozenChain) {
  for (const std::uint64_t seed : {3ull, 91ull, 0x123456789abcdefull}) {
    GilbertElliottModel model(0.08, 0.3, 0.05, 0.85, seed);
    OracleGe oracle{0.08, 0.3, 0.05, 0.85, seed, {}};
    expect_all_shapes_match(model, oracle);

    GilbertElliottModel from_mean =
        GilbertElliottModel::from_mean_loss(0.1, 4.0, seed);
    OracleGe mean_oracle = oracle_ge_from_mean(0.1, 4.0, seed);
    expect_all_shapes_match(from_mean, mean_oracle);
  }
}

// ---- chain words at their edges --------------------------------------------
// The model keeps a link's chain in 64-slot words up to a fixed horizon
// and steps on past it without storing; every edge must answer like the
// frozen walk.

constexpr Slot kHorizonSlot = 64 * GilbertElliottModel::kChainWords;

std::vector<Slot> word_edge_slots() {
  std::vector<Slot> slots;
  for (Slot s = 62; s <= 66; ++s) slots.push_back(s);
  for (Slot s = 126; s <= 130; ++s) slots.push_back(s);
  for (Slot s = kHorizonSlot - 3; s <= kHorizonSlot + 2; ++s) {
    slots.push_back(s);
  }
  for (const Slot s : {Slot{1000000}, Slot{1000001}, Slot{1000064}}) {
    slots.push_back(s);
  }
  return slots;
}

struct GeParams {
  double p_gb, p_bg, loss_good, loss_bad;
};

void expect_edges_match(const GeParams& p, std::uint64_t seed) {
  const std::vector<Slot> in_order = word_edge_slots();
  std::vector<Slot> shuffled = in_order;
  Xoshiro256 rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  // Past the horizon and back, then a kept word revisited.
  const std::vector<Slot> back_and_forth = {1000000, 65, kHorizonSlot + 1,
                                            1000001, 600,  1000064,
                                            1000000, 0,    kHorizonSlot - 1};
  GilbertElliottModel model(p.p_gb, p.p_bg, p.loss_good, p.loss_bad, seed);
  OracleGe oracle{p.p_gb, p.p_bg, p.loss_good, p.loss_bad, seed, {}};
  for (const std::vector<Slot>& order : {in_order, shuffled, back_and_forth}) {
    for (const Slot slot : order) {
      ASSERT_EQ(model.link_delivers(3, 9, slot), oracle.delivers(3, 9, slot))
          << "p_gb " << p.p_gb << " slot " << slot;
    }
    model.begin_run();
    oracle.begin_run();
  }
}

TEST(FaultOracle, GilbertElliottMatchesAtWordEdgesAndPastTheHorizon) {
  const double from_mean_p_gb = 0.25 * (0.1 / 0.9) / (1.0 - 0.1 / 0.9);
  const GeParams params[] = {
      {from_mean_p_gb, 0.25, 0.0, 0.9},  // from_mean_loss(0.1, 4)
      {0.08, 0.3, 0.05, 0.85},           // loss in both states
      {1.0, 0.3, 0.05, 0.85},            // every Good step turns Bad
      {0.6, 0.2, 0.1, 0.7},              // p_gb > p_bg: S and T together
  };
  for (const GeParams& p : params) {
    for (const std::uint64_t seed : {4ull, 0xabcdefull}) {
      expect_edges_match(p, seed);
    }
  }
  // The first set is from_mean_loss's own.
  GilbertElliottModel from_mean =
      GilbertElliottModel::from_mean_loss(0.1, 4, 4);
  OracleGe oracle = oracle_ge_from_mean(0.1, 4, 4);
  for (const Slot slot : word_edge_slots()) {
    ASSERT_EQ(from_mean.link_delivers(3, 9, slot), oracle.delivers(3, 9, slot))
        << slot;
  }
}

// estimate_link_quality's probe pass, driven by the oracle.
template <typename Oracle>
std::vector<double> oracle_estimate(const Topology& topo, Oracle& oracle) {
  const LinkEstimatorConfig config;
  oracle.begin_run();
  std::vector<double> quality;
  for (NodeId tx = 0; tx < topo.num_nodes(); ++tx) {
    for (NodeId rx : topo.neighbors(tx)) {
      std::size_t delivered = 0;
      for (std::size_t round = 0; round < config.probe_rounds; ++round) {
        const Slot slot = 1 + static_cast<Slot>(round) * config.slot_stride;
        if (oracle.delivers(tx, rx, slot)) delivered += 1;
      }
      const double p = static_cast<double>(delivered) /
                       static_cast<double>(config.probe_rounds);
      quality.push_back(std::clamp(p, config.min_delivery, 1.0));
    }
  }
  return quality;
}

TEST(FaultOracle, LinkEstimatesMatchOnThePaperMeshes) {
  for (const char* family : {"2D-4", "2D-8"}) {
    const std::unique_ptr<Topology> topo = make_paper_topology(family);
    IidLossModel iid(0.1, 0xe57);
    OracleIid iid_oracle{0.1, 0xe57};
    EXPECT_EQ(estimate_link_quality(*topo, iid),
              oracle_estimate(*topo, iid_oracle))
        << family << " iid";

    GilbertElliottModel ge = GilbertElliottModel::from_mean_loss(0.1, 4.0, 29);
    OracleGe ge_oracle = oracle_ge_from_mean(0.1, 4.0, 29);
    EXPECT_EQ(estimate_link_quality(*topo, ge),
              oracle_estimate(*topo, ge_oracle))
        << family << " gilbert";
  }
}

// A composite's probe pass: a packet survives when every part delivers.
struct OracleComposite {
  OracleIid iid;
  OracleGe ge;

  bool delivers(NodeId tx, NodeId rx, Slot slot) {
    const bool iid_ok = iid.delivers(tx, rx, slot);
    const bool ge_ok = ge.delivers(tx, rx, slot);
    return iid_ok && ge_ok;
  }
  void begin_run() {
    iid.begin_run();
    ge.begin_run();
  }
};

TEST(FaultOracle, LinkEstimatesMatchWithGoodStateLossAndComposites) {
  for (const char* family : {"2D-4", "2D-8"}) {
    const std::unique_ptr<Topology> topo = make_paper_topology(family);
    for (const std::uint64_t seed : {5ull, 0xfeedull}) {
      // Loss in the Good state too: every probe slot draws a loss.
      GilbertElliottModel ge(0.08, 0.3, 0.05, 0.85, seed);
      OracleGe ge_oracle{0.08, 0.3, 0.05, 0.85, seed, {}};
      EXPECT_EQ(estimate_link_quality(*topo, ge),
                oracle_estimate(*topo, ge_oracle))
          << family << " gilbert " << seed;

      // iid + Gilbert + a crash schedule, which never fades a link.
      IidLossModel iid_part(0.2, seed + 1);
      GilbertElliottModel ge_part(0.08, 0.3, 0.05, 0.85, seed);
      CrashScheduleModel crash_part(topo->num_nodes(),
                                    {CrashEvent{0, 3, 40}});
      CompositeFaultModel composite({&iid_part, &ge_part, &crash_part});
      OracleComposite composite_oracle{
          OracleIid{0.2, seed + 1}, OracleGe{0.08, 0.3, 0.05, 0.85, seed, {}}};
      EXPECT_EQ(estimate_link_quality(*topo, composite),
                oracle_estimate(*topo, composite_oracle))
          << family << " composite " << seed;
    }
  }
}

// ---- copy and move safety -------------------------------------------------
// The scenario engine moves models by value, so whatever a model caches
// about the last link it hashed must not travel with a copy or a move.

template <typename Model>
void warm_up(Model& model) {
  for (Slot s = 1; s <= 40; ++s) {
    (void)model.link_delivers(4, 5, s);
    (void)model.link_delivers(5, 4, s);
  }
  (void)model.link_delivers(4, 5, 41);
}

template <typename Model>
void expect_answers_like(Model& model, Model& fresh) {
  for (const std::vector<Query>& queries :
       {interleaved_queries(7), out_of_order_queries(7)}) {
    for (const Query& q : queries) {
      ASSERT_EQ(model.link_delivers(q.tx, q.rx, q.slot),
                fresh.link_delivers(q.tx, q.rx, q.slot));
    }
  }
  // The warm-up links, revisited from both ends of their chains.
  for (const Slot s : {Slot{41}, Slot{42}, Slot{3}, Slot{90}}) {
    ASSERT_EQ(model.link_delivers(4, 5, s), fresh.link_delivers(4, 5, s));
    ASSERT_EQ(model.link_delivers(5, 4, s), fresh.link_delivers(5, 4, s));
  }
}

TEST(FaultModelCopies, CopyOfAUsedModelAnswersLikeAFreshOne) {
  GilbertElliottModel used(0.1, 0.25, 0.02, 0.9, 55);
  warm_up(used);
  GilbertElliottModel copy(used);
  GilbertElliottModel fresh(0.1, 0.25, 0.02, 0.9, 55);
  expect_answers_like(copy, fresh);

  GilbertElliottModel assigned(0.5, 0.5, 0.5, 0.5, 1);
  warm_up(assigned);
  assigned = used;
  GilbertElliottModel fresh2(0.1, 0.25, 0.02, 0.9, 55);
  expect_answers_like(assigned, fresh2);

  IidLossModel iid_used(0.3, 55);
  warm_up(iid_used);
  IidLossModel iid_copy(iid_used);
  IidLossModel iid_fresh(0.3, 55);
  expect_answers_like(iid_copy, iid_fresh);
}

TEST(FaultModelCopies, MovedModelsAnswerLikeFreshOnes) {
  GilbertElliottModel used(0.1, 0.25, 0.02, 0.9, 56);
  warm_up(used);
  GilbertElliottModel moved(std::move(used));
  GilbertElliottModel fresh(0.1, 0.25, 0.02, 0.9, 56);
  expect_answers_like(moved, fresh);

  // The moved-from model is reusable after begin_run(), and never
  // reaches into the chains it gave away.
  used.begin_run();
  GilbertElliottModel fresh2(0.1, 0.25, 0.02, 0.9, 56);
  expect_answers_like(used, fresh2);
  GilbertElliottModel fresh3(0.1, 0.25, 0.02, 0.9, 56);
  expect_answers_like(moved, fresh3);

  GilbertElliottModel target(0.5, 0.5, 0.5, 0.5, 1);
  warm_up(target);
  GilbertElliottModel source(0.1, 0.25, 0.02, 0.9, 56);
  warm_up(source);
  target = std::move(source);
  GilbertElliottModel fresh4(0.1, 0.25, 0.02, 0.9, 56);
  expect_answers_like(target, fresh4);

  // The engine's own construction path: from_mean_loss into make_unique.
  auto owned = std::make_unique<GilbertElliottModel>(
      GilbertElliottModel::from_mean_loss(0.2, 4.0, 57));
  GilbertElliottModel fresh5 = GilbertElliottModel::from_mean_loss(0.2, 4.0, 57);
  expect_answers_like(*owned, fresh5);
}

TEST(IidLossModel, EmpiricalRateMatchesParameter) {
  IidLossModel model(0.25, 42);
  std::size_t losses = 0;
  const std::size_t draws = 40000;
  for (Slot s = 1; s <= draws; ++s) {
    if (!model.link_delivers(3, 7, s)) losses += 1;
  }
  const double rate = static_cast<double>(losses) / draws;
  EXPECT_NEAR(rate, 0.25, 0.01);
}

TEST(IidLossModel, PureFunctionOfSeedLinkSlot) {
  IidLossModel a(0.3, 99);
  IidLossModel b(0.3, 99);
  for (Slot s = 1; s <= 200; ++s) {
    EXPECT_EQ(a.link_delivers(1, 2, s), b.link_delivers(1, 2, s));
  }
  // Query order must not matter (counter-mode, not a stream).
  IidLossModel c(0.3, 99);
  for (Slot s = 200; s >= 1; --s) {
    EXPECT_EQ(c.link_delivers(1, 2, s), b.link_delivers(1, 2, s));
  }
}

TEST(IidLossModel, DirectedLinksAreIndependentStreams) {
  IidLossModel model(0.5, 7);
  std::size_t differs = 0;
  for (Slot s = 1; s <= 500; ++s) {
    if (model.link_delivers(1, 2, s) != model.link_delivers(2, 1, s)) {
      differs += 1;
    }
  }
  EXPECT_GT(differs, 100u);  // ~250 expected at p=0.5
}

TEST(IidLossModel, ZeroAndOneAreDegenerate) {
  IidLossModel never(0.0, 1);
  IidLossModel always(1.0, 1);
  for (Slot s = 1; s <= 50; ++s) {
    EXPECT_TRUE(never.link_delivers(0, 1, s));
    EXPECT_FALSE(always.link_delivers(0, 1, s));
  }
  EXPECT_TRUE(never.node_up(0, 1));  // loss models never crash nodes
}

TEST(GilbertElliott, StationaryLossMatchesMean) {
  GilbertElliottModel model =
      GilbertElliottModel::from_mean_loss(0.2, 4.0, 11);
  std::size_t losses = 0;
  const std::size_t draws = 60000;
  for (Slot s = 1; s <= draws; ++s) {
    if (!model.link_delivers(0, 1, s)) losses += 1;
  }
  const double rate = static_cast<double>(losses) / draws;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(GilbertElliott, LossesAreBursty) {
  // Conditional loss probability after a loss must exceed the marginal
  // rate -- the whole point of the bad state.
  GilbertElliottModel model =
      GilbertElliottModel::from_mean_loss(0.15, 8.0, 5);
  std::size_t losses = 0;
  std::size_t pairs = 0;
  std::size_t consecutive = 0;
  bool prev_lost = false;
  const std::size_t draws = 60000;
  for (Slot s = 1; s <= draws; ++s) {
    const bool lost = !model.link_delivers(2, 3, s);
    if (lost) losses += 1;
    if (prev_lost) {
      pairs += 1;
      if (lost) consecutive += 1;
    }
    prev_lost = lost;
  }
  const double marginal = static_cast<double>(losses) / draws;
  const double conditional =
      static_cast<double>(consecutive) / static_cast<double>(pairs);
  EXPECT_GT(conditional, 2.0 * marginal);
}

TEST(GilbertElliott, BeginRunReplaysIdentically) {
  GilbertElliottModel model =
      GilbertElliottModel::from_mean_loss(0.3, 4.0, 17);
  std::vector<bool> first;
  for (Slot s = 1; s <= 300; ++s) {
    first.push_back(model.link_delivers(4, 5, s));
  }
  model.begin_run();
  for (Slot s = 1; s <= 300; ++s) {
    EXPECT_EQ(model.link_delivers(4, 5, s), first[static_cast<std::size_t>(s - 1)]);
  }
}

TEST(GilbertElliott, StationaryBadShare) {
  const GilbertElliottModel model(0.1, 0.3, 0.0, 1.0, 1);
  EXPECT_NEAR(model.stationary_bad(), 0.25, 1e-12);
}

TEST(CrashSchedule, DownExactlyDuringWindow) {
  CrashScheduleModel model(5, {CrashEvent{2, 3, 7}});
  for (Slot s = 0; s <= 10; ++s) {
    EXPECT_EQ(model.node_up(2, s), s < 3 || s >= 7) << "slot " << s;
    EXPECT_TRUE(model.node_up(1, s));
  }
}

TEST(CrashSchedule, PermanentCrashNeverRecovers) {
  CrashScheduleModel model(3, {CrashEvent{0, 5, kNeverSlot}});
  EXPECT_TRUE(model.node_up(0, 4));
  EXPECT_FALSE(model.node_up(0, 5));
  EXPECT_FALSE(model.node_up(0, 100000));
  for (Slot s = 0; s <= 10; ++s) {
    EXPECT_TRUE(model.link_delivers(0, 1, s));  // crash models never fade
  }
}

TEST(CrashSchedule, SampleIsDeterministicAndBounded) {
  const auto a = CrashScheduleModel::sample(100, 0.2, 16, 4, 31);
  const auto b = CrashScheduleModel::sample(100, 0.2, 16, 4, 31);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_GT(a.events().size(), 5u);   // ~20 expected
  EXPECT_LT(a.events().size(), 50u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].down_from, b.events()[i].down_from);
    EXPECT_EQ(a.events()[i].up_at, b.events()[i].up_at);
    EXPECT_GE(a.events()[i].down_from, 1u);
    EXPECT_LE(a.events()[i].down_from, 16u);
    EXPECT_EQ(a.events()[i].up_at, a.events()[i].down_from + 4);
  }
}

TEST(CrashSchedule, SampleZeroProbabilityIsEmpty) {
  const auto model = CrashScheduleModel::sample(50, 0.0, 16, 0, 1);
  EXPECT_TRUE(model.events().empty());
}

TEST(Composite, ConjunctionOfParts) {
  IidLossModel lossy(1.0, 3);                           // drops everything
  CrashScheduleModel crash(4, {CrashEvent{1, 2, 5}});   // node 1 down [2,5)
  CompositeFaultModel both({&lossy, &crash});
  EXPECT_FALSE(both.link_delivers(0, 1, 1));  // lossy part drops
  EXPECT_FALSE(both.node_up(1, 3));           // crash part is down
  EXPECT_TRUE(both.node_up(1, 6));
  EXPECT_TRUE(both.node_up(0, 3));

  IidLossModel clean(0.0, 3);
  CompositeFaultModel clean_crash({&clean, &crash});
  EXPECT_TRUE(clean_crash.link_delivers(0, 1, 1));
}

// ---- the batch draw kernel --------------------------------------------------
// Both bodies of draw_mantissas against the frozen four-round draw.

using DrawBody = void (*)(const LinkHash&, std::uint64_t, std::uint64_t,
                          std::uint64_t, std::size_t, std::uint64_t*) noexcept;

void expect_kernel_matches_oracle(DrawBody body) {
  constexpr std::uint64_t kSentinel = 0xa5a5a5a5a5a5a5a5ull;
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t seed = rng();
    const auto tx = static_cast<NodeId>(rng.below(5000));
    const auto rx = static_cast<NodeId>(rng.below(5000));
    const std::uint64_t first = rng.below(1000);
    const std::uint64_t stride = 1 + rng.below(100);
    const std::uint64_t salt = trial % 2 == 0 ? 0x11d : 0x6eb;
    const LinkHash link = absorb_link(seed, oracle_link(tx, rx));
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 442u}) {
      // Eight guard words catch a tail store that runs past `n`.
      std::vector<std::uint64_t> out(n + 8, kSentinel);
      body(link, first, stride, salt, n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t slot = first + i * stride;
        ASSERT_EQ(static_cast<double>(out[i]) * 0x1.0p-53,
                  oracle_canonical(seed, oracle_link(tx, rx), slot, salt))
            << "trial " << trial << " n " << n << " i " << i;
      }
      for (std::size_t i = n; i < n + 8; ++i) ASSERT_EQ(out[i], kSentinel);
    }
  }
}

TEST(FaultDrawKernel, ScalarMatchesTheOracle) {
  expect_kernel_matches_oracle(&draw_mantissas_scalar);
}

TEST(FaultDrawKernel, Avx512MatchesTheOracle) {
#if WSN_FAULT_DRAW_AVX512
  if (!draw_avx512_supported()) {
    GTEST_SKIP() << "this CPU does not support x86-64-v4 (AVX-512)";
  }
  expect_kernel_matches_oracle(&draw_mantissas_avx512);
#else
  GTEST_SKIP() << "this build has no AVX-512 draw body";
#endif
}

TEST(FaultDrawKernel, DispatchedBodyMatchesTheOracle) {
  expect_kernel_matches_oracle(&draw_mantissas);
}

// ---- the chain word kernel -------------------------------------------------
// Both bodies of step_words against a chain walked slot by slot on the
// frozen draw.

using StepBody = void (*)(const LinkHash&, const ChainStep&, std::uint64_t,
                          std::size_t, unsigned, bool,
                          std::uint64_t*) noexcept;

std::uint64_t oracle_mantissa(std::uint64_t seed, std::uint64_t link,
                              std::uint64_t slot, std::uint64_t salt) {
  return static_cast<std::uint64_t>(oracle_canonical(seed, link, slot, salt) *
                                    0x1.0p53);
}

void expect_step_words_match_oracle(StepBody body) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  constexpr std::uint64_t kSentinel = 0x5a5a5a5a5a5a5a5aull;
  const std::uint64_t thresholds[] = {0,
                                      kOne,
                                      mantissa_threshold(0.08),
                                      mantissa_threshold(0.3),
                                      mantissa_threshold(0.6)};
  Xoshiro256 rng(77);
  for (const std::uint64_t enter : thresholds) {
    for (const std::uint64_t leave : thresholds) {
      const std::uint64_t seed = rng();
      const std::uint64_t link =
          oracle_link(static_cast<NodeId>(rng.below(900)),
                      static_cast<NodeId>(rng.below(900)));
      const ChainStep step{0x6eb, enter, leave};
      const LinkHash hash = absorb_link(seed, link);
      for (const std::uint64_t first_word : {0ull, 1ull, 6ull}) {
        for (const bool bad_before : {false, true}) {
          for (const std::size_t n : {1u, 3u}) {
            for (const unsigned last_slots : {1u, 8u, 9u, 40u, 63u, 64u}) {
              std::vector<std::uint64_t> out(n + 8, kSentinel);
              body(hash, step, first_word, n, last_slots, bad_before,
                   out.data());
              // The walk: Good at slot 0, else `bad_before` carried in.
              bool bad = first_word == 0 ? false : bad_before;
              const std::uint64_t stepped = (last_slots + 7) / 8 * 8;
              for (std::size_t i = 0; i < n; ++i) {
                const bool last = i + 1 == n;
                for (unsigned j = 0; j < 64; ++j) {
                  const std::uint64_t slot = (first_word + i) * 64 + j;
                  const bool bit = ((out[i] >> j) & 1) != 0;
                  if (last && j >= stepped) {
                    ASSERT_FALSE(bit) << "unstepped slot " << slot;
                    continue;
                  }
                  if (slot > 0) {
                    const std::uint64_t m =
                        oracle_mantissa(seed, link, slot, 0x6eb);
                    bad = bad ? m >= leave : m < enter;
                  }
                  ASSERT_EQ(bit, bad)
                      << "enter " << enter << " leave " << leave << " slot "
                      << slot << " carry " << bad_before << " last_slots "
                      << last_slots;
                }
              }
              for (std::size_t i = n; i < n + 8; ++i) {
                ASSERT_EQ(out[i], kSentinel);
              }
            }
          }
        }
      }
    }
  }
}

TEST(FaultDrawKernel, StepWordsScalarMatchesTheOracle) {
  expect_step_words_match_oracle(&step_words_scalar);
}

TEST(FaultDrawKernel, StepWordsAvx512MatchesTheOracle) {
#if WSN_FAULT_DRAW_AVX512
  if (!draw_avx512_supported()) {
    GTEST_SKIP() << "this CPU does not support x86-64-v4 (AVX-512)";
  }
  expect_step_words_match_oracle(&step_words_avx512);
#else
  GTEST_SKIP() << "this build has no AVX-512 step body";
#endif
}

TEST(FaultDrawKernel, StepWordsDispatchedMatchesTheOracle) {
  expect_step_words_match_oracle(&step_words);
}

TEST(FaultDrawKernel, ThresholdIsTheExactComparison) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  EXPECT_EQ(mantissa_threshold(0.0), 0u);
  EXPECT_EQ(mantissa_threshold(1.0), kOne);
  EXPECT_EQ(mantissa_threshold(1.0 / 64.0), kOne / 64);
  EXPECT_EQ(mantissa_threshold(0.25), kOne / 4);
  EXPECT_EQ(mantissa_threshold(-0.5), 0u);
  EXPECT_EQ(mantissa_threshold(1.5), kOne);

  std::vector<double> probabilities;
  for (const double p : {0.0, 1.0, 1.0 / 64.0, 0.25}) {
    probabilities.push_back(p);
    probabilities.push_back(std::nextafter(p, -1.0));
    probabilities.push_back(std::nextafter(p, 2.0));
  }
  probabilities.push_back(std::numeric_limits<double>::denorm_min());
  probabilities.push_back(1e-310);  // subnormal
  for (const double p : probabilities) {
    const std::uint64_t t = mantissa_threshold(p);
    ASSERT_LE(t, kOne) << p;
    std::vector<std::uint64_t> mantissas = {0, 1, kOne - 1, t};
    if (t > 0) mantissas.push_back(t - 1);
    if (t + 1 < kOne) mantissas.push_back(t + 1);
    for (const std::uint64_t m : mantissas) {
      if (m >= kOne) continue;
      const double u = static_cast<double>(m) * 0x1.0p-53;
      EXPECT_EQ(u >= p, m >= t) << "p " << p << " m " << m;
      EXPECT_EQ(u < p, m < t) << "p " << p << " m " << m;
    }
  }
}

// ---- the batch query ----------------------------------------------------------
// count_delivered must equal a loop of link_delivers over the same slots.

std::size_t loop_count(FaultModel& model, NodeId tx, NodeId rx, Slot first,
                       Slot stride, std::size_t rounds) {
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    const Slot slot = first + static_cast<Slot>(i) * stride;
    if (model.link_delivers(tx, rx, slot)) delivered += 1;
  }
  return delivered;
}

constexpr std::pair<NodeId, NodeId> kBatchLinks[] = {
    {0, 1}, {7, 3}, {1000, 1001}};

// `batched` and `looped` are twins: same kind, parameters and seed.
void expect_batch_matches_loop(FaultModel& batched, FaultModel& looped) {
  for (const Slot first : {Slot{0}, Slot{1}, Slot{5}, Slot{300}}) {
    for (const Slot stride : {Slot{1}, Slot{7}, Slot{64}}) {
      for (const std::size_t rounds : {0u, 1u, 7u, 64u, 600u}) {
        for (const auto& [tx, rx] : kBatchLinks) {
          ASSERT_EQ(batched.count_delivered(tx, rx, first, stride, rounds),
                    loop_count(looped, tx, rx, first, stride, rounds))
              << tx << "->" << rx << " first " << first << " stride "
              << stride << " rounds " << rounds;
        }
      }
    }
  }
}

TEST(FaultBatch, IidCountMatchesTheLoop) {
  for (const double loss : {0.0, 0.3, 1.0}) {
    IidLossModel batched(loss, 77);
    IidLossModel looped(loss, 77);
    expect_batch_matches_loop(batched, looped);
  }
  IidLossModel never(0.0, 1);
  IidLossModel always(1.0, 1);
  EXPECT_EQ(never.count_delivered(2, 3, 1, 7, 64), 64u);
  EXPECT_EQ(always.count_delivered(2, 3, 1, 7, 64), 0u);
}

TEST(FaultBatch, GilbertCountMatchesTheLoop) {
  // Loss in both states, and a chain that turns Bad on every Good step.
  for (const double p_gb : {0.08, 1.0}) {
    GilbertElliottModel batched(p_gb, 0.3, 0.05, 0.85, 91);
    GilbertElliottModel looped(p_gb, 0.3, 0.05, 0.85, 91);
    expect_batch_matches_loop(batched, looped);
  }
  GilbertElliottModel batched = GilbertElliottModel::from_mean_loss(0.2, 4, 3);
  GilbertElliottModel looped = GilbertElliottModel::from_mean_loss(0.2, 4, 3);
  expect_batch_matches_loop(batched, looped);
}

TEST(FaultBatch, CountIgnoresChainsAdvancedPastTheFirstSlot) {
  GilbertElliottModel batched(0.08, 0.3, 0.05, 0.85, 12);
  GilbertElliottModel looped(0.08, 0.3, 0.05, 0.85, 12);
  GilbertElliottModel fresh(0.08, 0.3, 0.05, 0.85, 12);
  for (const auto& [tx, rx] : kBatchLinks) {
    (void)batched.link_delivers(tx, rx, 5000);
  }
  expect_batch_matches_loop(batched, looped);
  // The batch walks its own chain: the model still answers like a fresh
  // one.
  expect_answers_like(batched, fresh);
}

TEST(FaultBatch, CrashScheduleCountsThroughTheDefault) {
  CrashScheduleModel batched(2000, {CrashEvent{0, 3, 9}});
  CrashScheduleModel looped(2000, {CrashEvent{0, 3, 9}});
  expect_batch_matches_loop(batched, looped);
  EXPECT_EQ(batched.count_delivered(0, 1, 1, 1, 20), 20u);
}

TEST(FaultBatch, CompositeCountMatchesTheLoop) {
  IidLossModel iid_a(0.3, 8);
  GilbertElliottModel ge_a(0.08, 0.3, 0.05, 0.85, 9);
  CrashScheduleModel crash_a(2000, {CrashEvent{7, 2, 30}});
  CompositeFaultModel batched({&iid_a, &ge_a, &crash_a});
  IidLossModel iid_b(0.3, 8);
  GilbertElliottModel ge_b(0.08, 0.3, 0.05, 0.85, 9);
  CrashScheduleModel crash_b(2000, {CrashEvent{7, 2, 30}});
  CompositeFaultModel looped({&iid_b, &ge_b, &crash_b});
  expect_batch_matches_loop(batched, looped);
}

}  // namespace
}  // namespace wsn
