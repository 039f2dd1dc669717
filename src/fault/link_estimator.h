#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "fault/fault_model.h"
#include "topology/topology.h"

/// Seeded link-quality estimation: learn per-edge ETX from probe rounds.
///
/// A deployment never knows its delivery probabilities a priori; it learns
/// them by counting acknowledged probes (the ETX estimator of De Couto et
/// al., carried into every serious mesh stack since -- cf. Meshtastic's
/// SNR-driven SignalRouting).  This module reproduces that measurement
/// offline: for each directed CSR link it asks the fault model whether a
/// probe packet would have survived each of `probe_rounds` probe slots and
/// reports the empirical delivery fraction, aligned with the topology's
/// CSR order so the result drops straight into
/// `Topology::set_link_quality` or the ETX planner's quality span.
///
/// Determinism: the fault models are counter-mode hashes of
/// (seed, link, slot), so the estimate is a pure function of
/// (model seed, config) -- rerunning the estimator replays the exact same
/// probes.  Probe slots are spread with a stride so bursty (Gilbert-
/// Elliott) channels are sampled across many coherence times instead of
/// inside one burst, giving an estimate of the *stationary* delivery rate.
///
/// Cost: one `FaultModel::count_delivered` call per directed link.  The
/// iid model answers it from one link hash and one batch of counter-mode
/// draws (fault/fault_draw.h); the Gilbert-Elliott model steps the link's
/// chain in 64-slot words up to the last probe (`step_words`, 7 words for
/// the default 64 probes at stride 7), counts the probes in a lossless
/// state with a popcount and draws a loss only for the others.  Both
/// kernels have an AVX-512 body that runs when
/// `__builtin_cpu_supports("x86-64-v4")` holds and a scalar body that runs
/// everywhere else; the choice is made once per process and never changes
/// a bit of the estimate.  Other models (composites, crash schedules) fall
/// back to a loop over `link_delivers`.
namespace wsn {

struct LinkEstimatorConfig {
  /// Probes per directed link.  64 bounds the estimate's standard error
  /// near 0.06 -- enough to rank links, cheap enough to run per job.
  std::size_t probe_rounds = 64;
  /// Slot distance between consecutive probes of one link.  Larger
  /// strides decorrelate the samples of bursty channels; 7 clears the
  /// default Gilbert-Elliott burst length (4) with margin.
  Slot slot_stride = 7;
  /// Lower clamp on the reported delivery probability.  A link that
  /// drops every probe still has *some* capacity (the estimator just
  /// missed it); clamping keeps ETX = 1/p finite and planner weights
  /// totally ordered.
  double min_delivery = 1.0 / 64.0;
};

/// Probes every directed link of `topo` against `model` and returns the
/// empirical per-link delivery probabilities in CSR order (values in
/// [min_delivery, 1]).  `model` is reset via `begin_run()` first and left
/// in an unspecified probe state -- pass a dedicated instance, not the one
/// a simulation is about to consume.
[[nodiscard]] std::vector<double> estimate_link_quality(
    const Topology& topo, FaultModel& model,
    const LinkEstimatorConfig& config = {});

/// Convenience: estimates and installs the annotation on `topo`.
void learn_link_quality(Topology& topo, FaultModel& model,
                        const LinkEstimatorConfig& config = {});

/// Expected transmissions to cover all of `node`'s neighbors in one
/// broadcast slot-series under the quality annotation: the planner's
/// per-relay ETX weight.  With quality `p_i` per out-link, a broadcast
/// transmission is "useful" to neighbor i with probability p_i; the
/// bottleneck neighbor dominates, so the weight is 1 / min_i p_i (1.0
/// for perfect links or isolated nodes).
[[nodiscard]] double broadcast_etx(const Topology& topo, NodeId node);

}  // namespace wsn
