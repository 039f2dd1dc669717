#include "analysis/resilience.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/random.h"
#include "fault/models.h"
#include "obs/profile.h"
#include "protocol/etx_planner.h"

namespace wsn {

namespace {

/// Stream-splits the master seed so every (cell, trial) pair gets a
/// decorrelated seed, stable under reordering of the sweep loops.
std::uint64_t trial_seed(std::uint64_t master, std::size_t cell,
                         std::size_t trial) noexcept {
  std::uint64_t state = master;
  state ^= splitmix64(state) + cell;
  state ^= splitmix64(state) + trial;
  return splitmix64(state);
}

struct TrialResult {
  double reachability = 0.0;
  bool full = false;
  double delay = 0.0;
  double tx = 0.0;
  Joules energy = 0.0;
  double lost_fading = 0.0;
  double lost_crash = 0.0;
};

}  // namespace

const ResilienceCell* ResilienceSweep::find(double loss_rate,
                                            RecoveryPolicy policy) const {
  for (const ResilienceCell& cell : cells) {
    if (cell.loss_rate == loss_rate && cell.policy == policy) return &cell;
  }
  return nullptr;
}

void ResilienceSweep::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.typed_row("topology", "loss_rate", "policy", "trials", "planned_tx",
                "mean_reachability", "min_reachability", "full_reach_share",
                "mean_delay", "mean_tx", "mean_energy_j",
                "mean_lost_fading", "mean_lost_crash");
  for (const ResilienceCell& cell : cells) {
    csv.typed_row(topology, cell.loss_rate, to_string(cell.policy),
                  cell.trials, cell.planned_tx, cell.mean_reachability,
                  cell.min_reachability, cell.full_reach_share,
                  cell.mean_delay, cell.mean_tx, cell.mean_energy,
                  cell.mean_lost_fading, cell.mean_lost_crash);
  }
}

ResilienceSweep run_resilience_sweep(const Topology& topo,
                                     const RelayPlan& plan,
                                     const ResilienceConfig& config) {
  WSN_EXPECTS(config.trials >= 1);
  WSN_EXPECTS(!config.loss_rates.empty());
  WSN_EXPECTS(!config.policies.empty());
  WSN_SPAN("resilience.sweep");

  ResilienceSweep sweep;
  sweep.topology = topo.name();

  // Each policy's augmented plan is deterministic; build and flatten it
  // once for all of its trials.
  std::vector<FlatRelayPlan> plans;
  plans.reserve(config.policies.size());
  for (RecoveryPolicy policy : config.policies) {
    plans.emplace_back(apply_recovery(topo, plan, policy, config.repeat_k));
  }

  std::size_t cell_index = 0;
  for (double loss_rate : config.loss_rates) {
    for (std::size_t p = 0; p < config.policies.size(); ++p) {
      const FlatRelayPlan& recovered = plans[p];

      const std::vector<TrialResult> results =
          parallel_map<TrialResult>(
              config.trials,
              [&](std::size_t trial) {
                WSN_SPAN("resilience.trial");
                const std::uint64_t seed =
                    trial_seed(config.seed, cell_index, trial);
                // Per-trial models: FaultModel is stateful and must not be
                // shared across the concurrent trials.
                std::unique_ptr<FaultModel> medium;
                if (config.bursty) {
                  medium = std::make_unique<GilbertElliottModel>(
                      GilbertElliottModel::from_mean_loss(
                          loss_rate, config.burst_len, seed));
                } else {
                  medium =
                      std::make_unique<IidLossModel>(loss_rate, seed);
                }
                std::unique_ptr<CrashScheduleModel> crashes;
                std::unique_ptr<CompositeFaultModel> composite;
                FaultModel* faults = medium.get();
                if (config.crash_prob > 0.0) {
                  std::uint64_t crash_state = seed ^ 0xc7a5ull;
                  crashes = std::make_unique<CrashScheduleModel>(
                      CrashScheduleModel::sample(
                          topo.num_nodes(), config.crash_prob,
                          config.crash_horizon, config.crash_outage,
                          splitmix64(crash_state)));
                  composite = std::make_unique<CompositeFaultModel>(
                      std::vector<FaultModel*>{medium.get(),
                                               crashes.get()});
                  faults = composite.get();
                }

                SimOptions options;
                options.faults = faults;
                const BroadcastOutcome outcome =
                    simulate_broadcast(topo, recovered, options);
                const BroadcastStats& s = outcome.stats;
                return TrialResult{
                    s.reachability(),
                    s.fully_reached(),
                    static_cast<double>(s.delay),
                    static_cast<double>(s.tx),
                    s.total_energy(),
                    static_cast<double>(s.lost_to_fading),
                    static_cast<double>(s.lost_to_crash)};
              },
              config.workers);

      ResilienceCell cell;
      cell.loss_rate = loss_rate;
      cell.policy = config.policies[p];
      cell.trials = config.trials;
      cell.planned_tx = recovered.total_offsets();
      cell.min_reachability = 1.0;
      for (const TrialResult& r : results) {
        cell.mean_reachability += r.reachability;
        cell.min_reachability = std::min(cell.min_reachability,
                                         r.reachability);
        cell.full_reach_share += r.full ? 1.0 : 0.0;
        cell.mean_delay += r.delay;
        cell.mean_tx += r.tx;
        cell.mean_energy += r.energy;
        cell.mean_lost_fading += r.lost_fading;
        cell.mean_lost_crash += r.lost_crash;
      }
      const double inv = 1.0 / static_cast<double>(config.trials);
      cell.mean_reachability *= inv;
      cell.full_reach_share *= inv;
      cell.mean_delay *= inv;
      cell.mean_tx *= inv;
      cell.mean_energy *= inv;
      cell.mean_lost_fading *= inv;
      cell.mean_lost_crash *= inv;
      sweep.cells.push_back(cell);
      cell_index += 1;
    }
  }
  return sweep;
}

void PlannerComparison::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.typed_row("topology", "loss_rate", "trials", "geo_planned_tx",
                "geo_coverage", "geo_full_share", "geo_tx",
                "etx_planned_tx", "etx_coverage", "etx_full_share",
                "etx_tx", "etx_retries", "etx_exhausted_share");
  for (const PlannerComparisonCell& cell : cells) {
    csv.typed_row(topology, cell.loss_rate, cell.trials,
                  cell.geo_planned_tx, cell.geo_coverage,
                  cell.geo_full_share, cell.geo_tx, cell.etx_planned_tx,
                  cell.etx_coverage, cell.etx_full_share, cell.etx_tx,
                  cell.etx_retries, cell.etx_exhausted_share);
  }
}

PlannerComparison run_planner_comparison(
    const Topology& topo, const RelayPlan& geometric_plan,
    const PlannerComparisonConfig& config) {
  WSN_EXPECTS(config.trials >= 1);
  WSN_EXPECTS(!config.loss_rates.empty());
  WSN_EXPECTS(geometric_plan.num_nodes() == topo.num_nodes());
  WSN_SPAN("resilience.planner_comparison");

  PlannerComparison comparison;
  comparison.topology = topo.name();

  // The geometric arm runs one unedited plan in every trial: flatten it
  // once.
  const FlatRelayPlan geo_recovered =
      repeat_k(geometric_plan, config.repeat_k);
  const NodeId source = geometric_plan.source;

  for (std::size_t li = 0; li < config.loss_rates.size(); ++li) {
    const double loss_rate = config.loss_rates[li];

    // The ETX arm learns the channel once per condition -- a dedicated
    // probe stream, decorrelated from every trial's channel, the way a
    // deployment's estimator samples a different time window than the
    // broadcast it later plans.
    const std::uint64_t probe_seed =
        trial_seed(config.seed ^ 0x9e0bEull, li, 0);
    GilbertElliottModel probe_channel = GilbertElliottModel::from_mean_loss(
        loss_rate, config.burst_len, probe_seed);
    const std::vector<double> quality =
        estimate_link_quality(topo, probe_channel, config.estimator);
    const RelayPlan etx = etx_plan(topo, source, quality, SimOptions{},
                                   nullptr, config.planner);

    struct PairedResult {
      double geo_coverage = 0.0;
      bool geo_full = false;
      double geo_tx = 0.0;
      double etx_coverage = 0.0;
      bool etx_full = false;
      double etx_tx = 0.0;
      double retries = 0.0;
      bool exhausted = false;
    };
    const std::vector<PairedResult> results = parallel_map<PairedResult>(
        config.trials,
        [&](std::size_t trial) {
          WSN_SPAN("resilience.comparison_trial");
          const std::uint64_t seed = trial_seed(config.seed, li, trial);
          PairedResult r;
          {
            // Both arms face the *same* channel realization: paired
            // trials, so the comparison is between plans, not draws.
            GilbertElliottModel channel =
                GilbertElliottModel::from_mean_loss(loss_rate,
                                                    config.burst_len, seed);
            SimOptions options;
            options.faults = &channel;
            const BroadcastOutcome outcome =
                simulate_broadcast(topo, geo_recovered, options);
            r.geo_coverage = outcome.stats.reachability();
            r.geo_full = outcome.stats.fully_reached();
            r.geo_tx = static_cast<double>(outcome.stats.tx);
          }
          {
            GilbertElliottModel channel =
                GilbertElliottModel::from_mean_loss(loss_rate,
                                                    config.burst_len, seed);
            SimOptions options;
            options.faults = &channel;
            AdaptiveArqReport report;
            const BroadcastOutcome outcome = run_adaptive_arq(
                topo, etx, options, config.arq, &report, quality);
            r.etx_coverage = outcome.stats.reachability();
            r.etx_full = outcome.stats.fully_reached();
            r.etx_tx = static_cast<double>(outcome.stats.tx);
            r.retries = static_cast<double>(report.retries);
            r.exhausted = report.budget_exhausted;
          }
          return r;
        },
        config.workers);

    PlannerComparisonCell cell;
    cell.loss_rate = loss_rate;
    cell.trials = config.trials;
    cell.geo_planned_tx = geo_recovered.total_offsets();
    cell.etx_planned_tx = etx.planned_tx();
    for (const PairedResult& r : results) {
      cell.geo_coverage += r.geo_coverage;
      cell.geo_full_share += r.geo_full ? 1.0 : 0.0;
      cell.geo_tx += r.geo_tx;
      cell.etx_coverage += r.etx_coverage;
      cell.etx_full_share += r.etx_full ? 1.0 : 0.0;
      cell.etx_tx += r.etx_tx;
      cell.etx_retries += r.retries;
      cell.etx_exhausted_share += r.exhausted ? 1.0 : 0.0;
    }
    const double inv = 1.0 / static_cast<double>(config.trials);
    cell.geo_coverage *= inv;
    cell.geo_full_share *= inv;
    cell.geo_tx *= inv;
    cell.etx_coverage *= inv;
    cell.etx_full_share *= inv;
    cell.etx_tx *= inv;
    cell.etx_retries *= inv;
    cell.etx_exhausted_share *= inv;
    comparison.cells.push_back(cell);
  }
  return comparison;
}

}  // namespace wsn
