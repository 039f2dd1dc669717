#include "fault/link_estimator.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/profile.h"

namespace wsn {

std::vector<double> estimate_link_quality(const Topology& topo,
                                          FaultModel& model,
                                          const LinkEstimatorConfig& config) {
  WSN_EXPECTS(config.probe_rounds >= 1);
  WSN_EXPECTS(config.slot_stride >= 1);
  WSN_EXPECTS(config.min_delivery > 0.0 && config.min_delivery <= 1.0);
  WSN_SPAN("fault.link_estimate");

  model.begin_run();
  std::vector<double> quality;
  quality.reserve(topo.num_directed_links());
  const double inv_rounds = 1.0 / static_cast<double>(config.probe_rounds);
  for (NodeId tx = 0; tx < topo.num_nodes(); ++tx) {
    for (NodeId rx : topo.neighbors(tx)) {
      // Probe slots start at 1 (slot 0 is the source's own epoch) and
      // advance by the stride; one batch query per directed link.
      const std::size_t delivered = model.count_delivered(
          tx, rx, 1, config.slot_stride, config.probe_rounds);
      const double p = static_cast<double>(delivered) * inv_rounds;
      quality.push_back(std::clamp(p, config.min_delivery, 1.0));
    }
  }
  return quality;
}

void learn_link_quality(Topology& topo, FaultModel& model,
                        const LinkEstimatorConfig& config) {
  topo.set_link_quality(estimate_link_quality(topo, model, config));
}

double broadcast_etx(const Topology& topo, NodeId node) {
  double min_delivery = 1.0;
  for (NodeId rx : topo.neighbors(node)) {
    min_delivery = std::min(min_delivery, topo.link_delivery(node, rx));
  }
  return 1.0 / min_delivery;
}

}  // namespace wsn
