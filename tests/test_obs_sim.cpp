#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "sim/pipeline.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

/// The issue's core acceptance criterion: the metrics registry must agree
/// with BroadcastStats on every paper topology, and the event sink's
/// per-kind totals must agree with both.
TEST(ObserverSim, MetricsMatchStatsOnEveryPaperTopology) {
  for (const std::string& family : regular_families()) {
    SCOPED_TRACE(family);
    const auto topo = make_paper_topology(family);
    const NodeId src = graph_center(*topo);
    const RelayPlan plan = paper_plan(*topo, src);

    EventSink sink;
    MetricsRegistry registry;
    Observer observer(&sink, &registry);
    SimOptions options;
    options.observer = &observer;
    options.record_collisions = true;
    options.record_node_energy = true;
    const BroadcastOutcome out = simulate_broadcast(*topo, plan, options);

    const MetricsSnapshot snap = registry.scrape();
    EXPECT_EQ(snap.counter_or("sim.runs"), 1u);
    EXPECT_EQ(snap.counter_or("sim.tx"), out.stats.tx);
    EXPECT_EQ(snap.counter_or("sim.rx"), out.stats.rx);
    EXPECT_EQ(snap.counter_or("sim.duplicates"), out.stats.duplicates);
    EXPECT_EQ(snap.counter_or("sim.collisions"), out.stats.collisions);
    EXPECT_EQ(snap.counter_or("sim.lost_to_fading"), 0u);
    EXPECT_EQ(snap.counter_or("sim.lost_to_crash"), 0u);

    EXPECT_EQ(sink.count(EventKind::kTx), out.stats.tx);
    EXPECT_EQ(sink.count(EventKind::kCollision), out.stats.collisions);
    EXPECT_EQ(sink.count(EventKind::kDuplicate), out.stats.duplicates);
    EXPECT_EQ(sink.count(EventKind::kRx) + sink.count(EventKind::kDuplicate),
              out.stats.rx);

    // Distribution histograms: the slot-delay extremum is Table 5's
    // max-delay; per-node energy sums back to the stats total.
    const HistogramSnapshot* delay = snap.histogram("sim.slot_delay");
    ASSERT_NE(delay, nullptr);
    EXPECT_EQ(delay->count, out.stats.reached - 1);  // all but the source
    EXPECT_DOUBLE_EQ(delay->max, static_cast<double>(out.stats.delay));
    const HistogramSnapshot* energy = snap.histogram("sim.node_energy_j");
    ASSERT_NE(energy, nullptr);
    EXPECT_EQ(energy->count, topo->num_nodes());
    EXPECT_NEAR(energy->sum, out.stats.total_energy(), 1e-9);
    const HistogramSnapshot* etr = snap.histogram("sim.etr");
    ASSERT_NE(etr, nullptr);
    EXPECT_EQ(etr->count, out.stats.tx);
  }
}

TEST(ObserverSim, CollisionEventsMatchStatsOn32x16Mesh) {
  const Mesh2D4 topo(32, 16);
  const NodeId src = graph_center(topo);
  const RelayPlan plan = paper_plan(topo, src);

  EventSink sink;
  Observer observer(&sink);
  SimOptions options;
  options.observer = &observer;
  options.record_collisions = true;
  const BroadcastOutcome out = simulate_broadcast(topo, plan, options);

  ASSERT_GT(out.stats.collisions, 0u);  // the 2D-4 plan does collide
  EXPECT_EQ(sink.count(EventKind::kCollision), out.stats.collisions);
  EXPECT_EQ(sink.count(EventKind::kCollision),
            out.collision_events.size());
  std::size_t seen = 0;
  for (const Event& e : sink.events()) {
    if (e.kind != EventKind::kCollision) continue;
    EXPECT_GE(e.detail, 2u);  // detail carries the contender count
    ++seen;
  }
  EXPECT_EQ(seen, out.stats.collisions);
}

TEST(ObserverSim, EventsAreSlotOrdered) {
  const auto topo = make_paper_topology("2D-8");
  const RelayPlan plan = paper_plan(*topo, 0);
  EventSink sink;
  Observer observer(&sink);
  SimOptions options;
  options.observer = &observer;
  (void)simulate_broadcast(*topo, plan, options);

  Slot last = 0;
  for (const Event& e : sink.events()) {
    EXPECT_GE(e.slot, last);
    last = e.slot;
  }
}

TEST(ObserverSim, RunsWithoutEventSinkOrRegistry) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 9);
  Observer observer;  // no sink, no metrics: every emission is a no-op
  SimOptions options;
  options.observer = &observer;
  const BroadcastOutcome out = simulate_broadcast(topo, plan, options);
  EXPECT_TRUE(out.stats.fully_reached());
}

TEST(ObserverSim, MetricsAccumulateAcrossRuns) {
  const Mesh2D4 topo(8, 8);
  const RelayPlan plan = paper_plan(topo, 9);
  MetricsRegistry registry;
  Observer observer(nullptr, &registry);
  SimOptions options;
  options.observer = &observer;
  const BroadcastOutcome out = simulate_broadcast(topo, plan, options);
  (void)simulate_broadcast(topo, plan, options);

  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter_or("sim.runs"), 2u);
  EXPECT_EQ(snap.counter_or("sim.tx"), 2 * out.stats.tx);
  EXPECT_EQ(snap.counter_or("sim.rx"), 2 * out.stats.rx);
}

TEST(ObserverSim, ObserverOutputIsIdenticalToUnobservedRun) {
  const auto topo = make_paper_topology("2D-4");
  const RelayPlan plan = paper_plan(*topo, 42);
  const BroadcastOutcome plain = simulate_broadcast(*topo, plan);

  EventSink sink;
  MetricsRegistry registry;
  Observer observer(&sink, &registry);
  SimOptions options;
  options.observer = &observer;
  const BroadcastOutcome observed = simulate_broadcast(*topo, plan, options);

  EXPECT_EQ(plain.stats.tx, observed.stats.tx);
  EXPECT_EQ(plain.stats.rx, observed.stats.rx);
  EXPECT_EQ(plain.stats.collisions, observed.stats.collisions);
  EXPECT_EQ(plain.stats.delay, observed.stats.delay);
  EXPECT_EQ(plain.first_rx, observed.first_rx);
}

TEST(ObserverSim, PipelineMirrorsAggregateAndCountsDefers) {
  const auto topo = make_paper_topology("2D-4");
  const NodeId src = graph_center(*topo);
  const RelayPlan plan = paper_plan(*topo, src);

  EventSink sink;
  MetricsRegistry registry;
  Observer observer(&sink, &registry);
  PipelineOptions options;
  options.packets = 3;
  options.interval = 4;  // tight enough to force deferrals or collisions
  options.sim.observer = &observer;
  const PipelineOutcome out = simulate_pipeline(*topo, plan, options);

  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter_or("sim.runs"), 1u);
  EXPECT_EQ(snap.counter_or("sim.tx"), out.aggregate.tx);
  EXPECT_EQ(snap.counter_or("sim.rx"), out.aggregate.rx);
  EXPECT_EQ(snap.counter_or("sim.collisions"), out.aggregate.collisions);
  EXPECT_EQ(sink.count(EventKind::kCollision), out.aggregate.collisions);
  EXPECT_EQ(snap.counter_or("sim.pipeline_defers"),
            sink.count(EventKind::kPipelineDefer));
}

/// A metrics-only observer is documented as safe to share across the
/// concurrent runs of a sweep; the merged counters must equal the sums of
/// the per-source stats.
TEST(ObserverSim, SweepMergesMetricsAcrossConcurrentRuns) {
  const Mesh2D4 topo(12, 12);
  MetricsRegistry registry;
  Observer observer(nullptr, &registry);
  SimOptions options;
  options.observer = &observer;
  const SweepResult sweep = sweep_all_sources(topo, options);

  std::size_t tx = 0;
  std::size_t rx = 0;
  std::size_t collisions = 0;
  for (const SourceResult& r : sweep.per_source) {
    tx += r.stats.tx;
    rx += r.stats.rx;
    collisions += r.stats.collisions;
  }
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter_or("sim.runs"), sweep.per_source.size());
  EXPECT_EQ(snap.counter_or("sim.tx"), tx);
  EXPECT_EQ(snap.counter_or("sim.rx"), rx);
  EXPECT_EQ(snap.counter_or("sim.collisions"), collisions);
}

// Ring-buffer overflow is a first-class metric (ISSUE 5 satellite): a
// sink too small for the run surfaces its dropped count in the scrape,
// so downstream consumers can refuse to trust the truncated trace.
TEST(ObserverSim, EventsDroppedGaugeSurfacesRingOverflow) {
  const Mesh2D4 topo(12, 12);
  const auto gauge_of = [](const MetricsSnapshot& snap,
                           std::string_view name) {
    for (const auto& [key, value] : snap.gauges) {
      if (key == name) return value;
    }
    return -1.0;
  };

  {
    EventSink roomy;
    MetricsRegistry registry;
    Observer observer(&roomy, &registry);
    SimOptions options;
    options.observer = &observer;
    (void)simulate_broadcast(topo, paper_plan(topo, 0), options);
    EXPECT_EQ(gauge_of(registry.scrape(), "sim.events_dropped"), 0.0);
  }
  {
    EventSink tiny(32);
    MetricsRegistry registry;
    Observer observer(&tiny, &registry);
    SimOptions options;
    options.observer = &observer;
    (void)simulate_broadcast(topo, paper_plan(topo, 0), options);
    ASSERT_GT(tiny.dropped(), 0u);
    EXPECT_EQ(gauge_of(registry.scrape(), "sim.events_dropped"),
              static_cast<double>(tiny.dropped()));
  }
}

// Pipelined transmissions get TxRecords like a single broadcast's, so an
// observed pipeline feeds one sim.etr sample per transmission.
TEST(ObserverPipeline, EtrHistogramSamplesEveryTransmission) {
  const auto topo = make_paper_topology("2D-4");
  const RelayPlan plan = paper_plan(*topo, graph_center(*topo));

  MetricsRegistry registry;
  Observer observer(nullptr, &registry);
  PipelineOptions options;
  options.packets = 3;
  options.interval = 4;
  options.sim.observer = &observer;
  const PipelineOutcome out = simulate_pipeline(*topo, plan, options);

  const MetricsSnapshot snap = registry.scrape();
  const HistogramSnapshot* etr = snap.histogram("sim.etr");
  ASSERT_NE(etr, nullptr);
  EXPECT_GT(out.aggregate.tx, 0u);
  EXPECT_EQ(etr->count, out.aggregate.tx);
}

}  // namespace
}  // namespace wsn
