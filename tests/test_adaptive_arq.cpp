#include "fault/adaptive.h"

#include <gtest/gtest.h>

#include "fault/models.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "sim/simulator.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

TEST(AdaptiveArq, PerfectMediumSpendsNothing) {
  // With no faults the probe run already covers everyone: zero rounds,
  // zero retries, and the outcome matches a plain simulation exactly.
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 0);
  Simulator sim;
  const BroadcastOutcome plain = sim.run(topo, plan, {});
  AdaptiveArqReport report;
  const BroadcastOutcome arq = run_adaptive_arq(topo, plan, {}, {}, &report);
  EXPECT_EQ(report.rounds, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_FALSE(report.budget_exhausted);
  EXPECT_EQ(report.unrepaired, 0u);
  EXPECT_EQ(arq.stats.tx, plain.stats.tx);
  EXPECT_EQ(arq.stats.reached, plain.stats.reached);
  EXPECT_TRUE(arq.stats.fully_reached());
}

TEST(AdaptiveArq, LiftsCoverageUnderIidLoss) {
  // 20% i.i.d. loss on the bare paper plan strands nodes; ARQ retries
  // must recover a strictly better coverage on the identical channel
  // (counter-mode loss: appending retransmissions never perturbs the
  // original timeline's draws).
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 0);
  Simulator sim;
  std::size_t lifted = 0;
  std::size_t retries_total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    IidLossModel bare_model(0.2, seed);
    SimOptions bare_options;
    bare_options.faults = &bare_model;
    const BroadcastOutcome bare = sim.run(topo, plan, bare_options);

    IidLossModel arq_model(0.2, seed);
    SimOptions arq_options;
    arq_options.faults = &arq_model;
    AdaptiveArqReport report;
    const BroadcastOutcome arq =
        run_adaptive_arq(topo, plan, arq_options, {}, &report);
    EXPECT_GE(arq.stats.reached, bare.stats.reached);
    if (arq.stats.reached > bare.stats.reached) lifted += 1;
    retries_total += report.retries;
    EXPECT_LE(report.retries, AdaptiveArqConfig{}.retry_budget);
  }
  // At 20% loss the bare plan essentially never covers 64 nodes; the
  // lift must materialize in most seeds and cost actual retries.
  EXPECT_GE(lifted, 5u);
  EXPECT_GT(retries_total, 0u);
}

TEST(AdaptiveArq, RespectsTheRetryBudget) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 0);
  IidLossModel model(0.4, 7);
  SimOptions options;
  options.faults = &model;
  AdaptiveArqConfig config;
  config.retry_budget = 3;
  AdaptiveArqReport report;
  const BroadcastOutcome out =
      run_adaptive_arq(topo, plan, options, config, &report);
  EXPECT_LE(report.retries, 3u);
  // Graceful degradation: partial coverage plus a structured account,
  // never an abort.
  EXPECT_GT(out.stats.reached, 0u);
  if (!out.stats.fully_reached()) {
    EXPECT_TRUE(report.budget_exhausted ||
                report.rounds >= config.max_rounds);
    EXPECT_EQ(report.unrepaired,
              out.stats.num_nodes - out.stats.reached);
  }
}

TEST(AdaptiveArq, RoundLimitBoundsTheWaves) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 0);
  IidLossModel model(0.4, 11);
  SimOptions options;
  options.faults = &model;
  AdaptiveArqConfig config;
  config.max_rounds = 1;
  AdaptiveArqReport report;
  (void)run_adaptive_arq(topo, plan, options, config, &report);
  EXPECT_LE(report.rounds, 1u);
}

TEST(AdaptiveArq, IsDeterministic) {
  const Mesh2D4 topo(6, 6);
  const RelayPlan plan = paper_plan(topo, 5);
  BroadcastStats first;
  for (int run = 0; run < 2; ++run) {
    IidLossModel model(0.25, 42);
    SimOptions options;
    options.faults = &model;
    AdaptiveArqReport report;
    const BroadcastOutcome out =
        run_adaptive_arq(topo, plan, options, {}, &report);
    if (run == 0) {
      first = out.stats;
    } else {
      EXPECT_EQ(out.stats.tx, first.tx);
      EXPECT_EQ(out.stats.rx, first.rx);
      EXPECT_EQ(out.stats.reached, first.reached);
      EXPECT_EQ(out.stats.delay, first.delay);
    }
  }
}

// Counts the simulations that consult a fault model: the simulator calls
// begin_run() once before each run.
class CountingFaults final : public FaultModel {
 public:
  explicit CountingFaults(FaultModel& inner) : inner_(inner) {}
  void begin_run() override {
    runs += 1;
    inner_.begin_run();
  }
  bool node_up(NodeId node, Slot slot) override {
    return inner_.node_up(node, slot);
  }
  bool link_delivers(NodeId tx, NodeId rx, Slot slot) override {
    return inner_.link_delivers(tx, rx, slot);
  }
  std::size_t runs = 0;

 private:
  FaultModel& inner_;
};

TEST(AdaptiveArq, UnobservedRunReusesTheLastProbe) {
  // Without an observer the final replay of an unedited plan would repeat
  // the last probe exactly, so it is skipped: one simulation per probe
  // and none after.  An observed run still replays, and both return the
  // same outcome and report.
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 0);
  std::size_t early_exits = 0;
  for (const std::size_t max_rounds : {0u, 1u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      AdaptiveArqConfig config;
      config.max_rounds = max_rounds;

      IidLossModel bare_model(0.2, seed);
      CountingFaults bare(bare_model);
      SimOptions bare_options;
      bare_options.faults = &bare;
      AdaptiveArqReport bare_report;
      const BroadcastOutcome out =
          run_adaptive_arq(topo, plan, bare_options, config, &bare_report);

      IidLossModel observed_model(0.2, seed);
      CountingFaults observed(observed_model);
      EventSink sink;
      Observer observer(&sink);
      SimOptions observed_options;
      observed_options.faults = &observed;
      observed_options.observer = &observer;
      AdaptiveArqReport observed_report;
      const BroadcastOutcome replayed = run_adaptive_arq(
          topo, plan, observed_options, config, &observed_report);

      // Each round probes once; a loop that ran out of rounds edited the
      // plan after its last probe, so that plan still needs its run.
      const bool early = bare_report.rounds < max_rounds;
      early_exits += early ? 1 : 0;
      EXPECT_EQ(bare.runs, bare_report.rounds + 1) << seed;
      EXPECT_EQ(observed.runs, observed_report.rounds + (early ? 2u : 1u))
          << seed;
      EXPECT_GT(sink.size(), 0u);

      EXPECT_EQ(bare_report.rounds, observed_report.rounds);
      EXPECT_EQ(bare_report.retries, observed_report.retries);
      EXPECT_EQ(bare_report.budget, observed_report.budget);
      EXPECT_EQ(bare_report.budget_exhausted,
                observed_report.budget_exhausted);
      EXPECT_EQ(bare_report.unrepaired, observed_report.unrepaired);

      EXPECT_EQ(out.stats.reached, replayed.stats.reached);
      EXPECT_EQ(out.stats.tx, replayed.stats.tx);
      EXPECT_EQ(out.stats.rx, replayed.stats.rx);
      EXPECT_EQ(out.stats.duplicates, replayed.stats.duplicates);
      EXPECT_EQ(out.stats.collisions, replayed.stats.collisions);
      EXPECT_EQ(out.stats.lost_to_fading, replayed.stats.lost_to_fading);
      EXPECT_EQ(out.stats.delay, replayed.stats.delay);
      EXPECT_EQ(out.stats.tx_energy, replayed.stats.tx_energy);
      EXPECT_EQ(out.stats.rx_energy, replayed.stats.rx_energy);
      EXPECT_EQ(out.first_rx, replayed.first_rx);
      ASSERT_EQ(out.transmissions.size(), replayed.transmissions.size());
      for (std::size_t i = 0; i < out.transmissions.size(); ++i) {
        EXPECT_EQ(out.transmissions[i].slot, replayed.transmissions[i].slot);
        EXPECT_EQ(out.transmissions[i].node, replayed.transmissions[i].node);
        EXPECT_EQ(out.transmissions[i].delivered,
                  replayed.transmissions[i].delivered);
        EXPECT_EQ(out.transmissions[i].fresh,
                  replayed.transmissions[i].fresh);
      }
    }
  }
  // Both exits are exercised: max_rounds 0 and 1 run out of rounds, and
  // 8 rounds repair 20 % loss on 64 nodes before the limit.
  EXPECT_GT(early_exits, 0u);
  EXPECT_LT(early_exits, 18u);
}

}  // namespace
}  // namespace wsn
