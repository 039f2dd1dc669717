// bulk-1m: the million-node path with no Topology anywhere --
// ImplicitLattice + implicit_paper_plan + BulkSimulator +
// audit_bulk_outcome on 2D-4 and 2D-8 at 1000x1000 and 3D-6 at 100^3,
// from sources drawn from the seed.  (2D-3 at this size is left out: its
// plan resolution alone takes close to a minute.)

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "protocol/implicit_plan.h"
#include "protocol/mesh2d4_broadcast.h"
#include "sim/bulk/bulk_audit.h"
#include "sim/bulk/bulk_simulator.h"
#include "sim/plan.h"
#include "stats.h"
#include "topology/implicit.h"
#include "trace.h"
#include "workload.h"

namespace meshbench {

namespace {

struct LatticeSpec {
  const char* family;
  int m, n, l;
};
constexpr LatticeSpec kLattices[] = {
    {"2D-4", 1000, 1000, 1}, {"2D-8", 1000, 1000, 1}, {"3D-6", 100, 100, 100}};

/// First_rx probe stride of the coverage audit.
constexpr std::size_t kAuditStride = 4096;

struct Lane {
  wsn::ImplicitLattice lattice;
  wsn::BulkSimulator sim;
  wsn::NodeId source = 0;  // drawn from the seed; the same in every pass
};

class Bulk1m final : public Workload {
 public:
  explicit Bulk1m(const Options& options) : options_(options) {}

  /// Builds each lattice and primes its simulator with a one-transmission
  /// broadcast, which sizes the scratch and builds the per-rule masks the
  /// engine would otherwise build lazily inside the first timed run.
  void setup() override {
    wsn::Xoshiro256 rng(derive_seed(options_.seed, 0));
    for (const LatticeSpec& spec : kLattices) {
      wsn::ImplicitLattice lattice =
          wsn::ImplicitLattice::make(spec.family, spec.m, spec.n, spec.l);
      const std::size_t nodes = lattice.num_nodes();
      const auto source = static_cast<wsn::NodeId>(rng.below(nodes));
      auto lane = std::make_unique<Lane>(
          Lane{std::move(lattice), wsn::BulkSimulator(nodes), source});
      (void)lane->sim.run(lane->lattice,
                          wsn::RelayPlan::empty(nodes, lane->lattice.central_node()));
      lanes_.push_back(std::move(lane));
    }
  }

  void prepare_checks() override {}

  void warmup(Ledger& ledger) override { (void)run_pass(ledger); }

  /// Every pass runs the same broadcasts, and load from outside the
  /// process only ever slows a broadcast down, so each broadcast's fastest
  /// time is the closest reading of the program's own cost; ops_per_s is
  /// the broadcasts over the sum of those times.
  void measure(double seconds, Ledger& ledger, Result& result) override {
    const std::vector<Pass> passes = run_for(seconds, ledger);
    std::vector<double> best = passes.front().seconds;
    for (const Pass& pass : passes) {
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], pass.seconds[i]);
      }
    }
    double total = 0.0;
    for (const double s : best) total += s;
    result.set("ops_per_s", static_cast<double>(best.size()) / total);
  }

  void trace(double seconds, Ledger& ledger, Result& result) override {
    std::vector<double> rates;
    for (const Pass& pass : run_for(seconds / 2.0, ledger)) {
      rates.push_back(pass.ops_per_s());
    }
    const double untraced = median(rates);
    start_tracing();
    {
      BenchSpan s("ImplicitLattice::make");
      (void)wsn::ImplicitLattice::make(kLattices[0].family, kLattices[0].m,
                                       kLattices[0].n, kLattices[0].l);
    }
    const Pass pass = run_pass(ledger);
    const SpanTable spans = summarize_spans(stop_tracing());
    result.set("bench.trace_overhead", untraced / pass.ops_per_s() - 1.0);
    result.set("topology.build_ms", span(spans, "ImplicitLattice::make").mean_ms());
    result.set("protocol.implicit_plan_ms",
               span(spans, "implicit_paper_plan").mean_ms());
    result.set("protocol.compiles",
               static_cast<double>(span(spans, "plan.build").count));
    result.set("protocol.repairs", static_cast<double>(pass.repairs));
    const SpanTotals runs = span(spans, "BulkSimulator::run");
    result.set("sim.bulk_run_ms", runs.mean_ms());
    result.set("sim.bulk_slots", static_cast<double>(pass.slots));
    // Kernel cost per node and slot: what the word passes cost, apart
    // from how many slots a source's broadcast needs.
    result.set("sim.bulk_ns_per_node", runs.total_ms * 1e6 / pass.node_slots);
    result.set("audit.bulk_ms", span(spans, "audit_bulk_outcome").mean_ms());
    result.set("audit.checks", static_cast<double>(pass.checks));
  }

 private:
  struct Pass {
    std::vector<double> seconds;  // per broadcast, in lattice order
    std::uint64_t slots = 0;
    double node_slots = 0.0;  // sum of nodes x slots over the broadcasts
    std::uint64_t repairs = 0;
    std::uint64_t checks = 0;

    [[nodiscard]] double ops_per_s() const {
      double total = 0.0;
      for (const double s : seconds) total += s;
      return static_cast<double>(seconds.size()) / total;
    }
  };

  /// One broadcast per lattice from its seeded source: plan, simulate
  /// and audit are timed together; the outcome checks run after.
  Pass run_pass(Ledger& ledger) {
    Pass pass;
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      const wsn::ImplicitLattice& lat = lane->lattice;
      const wsn::NodeId source = lane->source;
      const auto start = std::chrono::steady_clock::now();
      wsn::ResolveReport resolve;
      wsn::RelayPlan plan;
      {
        BenchSpan s("implicit_paper_plan");
        plan = wsn::implicit_paper_plan(lat, source, {}, &resolve);
      }
      wsn::BroadcastOutcome outcome;
      {
        BenchSpan s("BulkSimulator::run");
        outcome = lane->sim.run(lat, plan);
      }
      wsn::BulkAuditReport audit;
      {
        BenchSpan s("audit_bulk_outcome");
        audit = wsn::audit_bulk_outcome(lat, outcome, source, kAuditStride);
      }
      pass.seconds.push_back(seconds_since(start));

      ledger.attempt();
      const std::string what = lat.name() + " from " + std::to_string(source);
      pass.checks += 2;
      if (!audit.conservation_ok()) {
        ledger.fail(what + ": fresh deliveries do not add up to reached - 1");
      } else if (!audit.full_coverage()) {
        ledger.fail(what + ": not every node was reached");
      } else if (lat.family() == "2D-4") {
        pass.checks += 1;
        const auto coord = lat.to_coord(source);
        const double analytic = wsn::Mesh2d4Broadcast::analytic_relay_mean_etr(
            coord.x, coord.y, lat.m(), lat.n());
        if (audit.relay_mean_etr != analytic) {
          ledger.fail(what + ": relay-mean ETR differs from the closed form");
        }
      }
      pass.slots += outcome.stats.delay;
      pass.node_slots += static_cast<double>(lat.num_nodes()) *
                         static_cast<double>(outcome.stats.delay);
      pass.repairs += resolve.repairs;
    }
    return pass;
  }

  std::vector<Pass> run_for(double seconds, Ledger& ledger) {
    std::vector<Pass> passes;
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < seconds || passes.size() < 2) {
      passes.push_back(run_pass(ledger));
    }
    return passes;
  }

  Options options_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_1m(const Options& options) {
  return std::make_unique<Bulk1m>(options);
}

}  // namespace meshbench
