#include "sim/pipeline.h"

namespace wsn {

PipelineOutcome simulate_pipeline(const Topology& topo,
                                  const RelayPlan& plan,
                                  const PipelineOptions& options) {
  Simulator simulator(topo.num_nodes());
  return simulator.run_pipeline(topo, plan, options);
}

Slot min_pipeline_interval(const Topology& topo, const RelayPlan& plan,
                           std::size_t packets, Slot limit) {
  Simulator simulator(topo.num_nodes());
  PipelineOptions options;
  options.packets = packets;
  for (Slot interval = 1; interval <= limit; ++interval) {
    options.interval = interval;
    if (simulator.run_pipeline(topo, plan, options).all_fully_reached()) {
      return interval;
    }
  }
  return 0;
}

}  // namespace wsn
