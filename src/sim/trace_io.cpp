#include "sim/trace_io.h"

#include <string>

#include "common/csv.h"

namespace wsn {

void write_plan_csv(std::ostream& out, const Topology& topo,
                    const RelayPlan& plan) {
  CsvWriter csv(out);
  csv.row({"node", "x", "y", "z", "role", "offsets"});
  for (NodeId v = 0; v < plan.num_nodes(); ++v) {
    const auto p = topo.position(v);
    std::string role = "passive";
    if (v == plan.source) {
      role = "source";
    } else if (plan.tx_offsets[v].size() > 1) {
      role = "retransmitter";
    } else if (plan.tx_offsets[v].size() == 1) {
      role = "relay";
    }
    std::string offsets;
    for (std::size_t i = 0; i < plan.tx_offsets[v].size(); ++i) {
      if (i != 0) offsets += '|';
      offsets += std::to_string(plan.tx_offsets[v][i]);
    }
    csv.row({std::to_string(v), std::to_string(p[0]), std::to_string(p[1]),
             std::to_string(p[2]), role, offsets});
  }
}

}  // namespace wsn
