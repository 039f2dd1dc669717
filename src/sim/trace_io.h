#pragma once

#include <ostream>

#include "sim/plan.h"
#include "topology/topology.h"

/// Relay-plan export.  Event traces are recorded through an Observer and
/// exported with obs/export.h (JSONL or Chrome/Perfetto trace-event JSON).
namespace wsn {

/// Writes the relay plan itself (node, role, offsets) -- enough to replay
/// or diff plans across protocol versions:
///
///   node,x,y,z,role,offsets
///   17,2,1,0,relay,1
///   33,4,3,0,retransmitter,1|2
void write_plan_csv(std::ostream& out, const Topology& topo,
                    const RelayPlan& plan);

}  // namespace wsn
