// Network lifetime under repeated broadcasting -- the motivation behind the
// paper's power accounting (sensor nodes have no plug-in power, §1).
//
//   $ network_lifetime [--family 2D-4] [--budget-uj 2000] [--rotate]
//
// Runs broadcast rounds until the network dies, with each node starting on
// a fixed energy budget.  Two source policies:
//   * fixed   -- the center node originates every broadcast (relay duty
//                concentrates on the same backbone and burns it out);
//   * rotate  -- the source rotates round-robin (LEACH-style duty spreading,
//                every node's relay role shifts with it).
// Reports rounds until the first node death and until the broadcast first
// fails to reach everyone.

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "protocol/registry.h"
#include "radio/battery.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"

int main(int argc, char** argv) {
  wsn::CliParser cli("network_lifetime",
                     "broadcast rounds until the battery bank gives out");
  cli.add_option("family", "topology family (2D-3, 2D-4, 2D-8, 3D-6)",
                 "2D-4");
  cli.add_option("budget-uj", "initial charge per node in microjoules",
                 "2000");
  cli.add_option("max-rounds", "stop even if the network survives", "2000");
  cli.add_flag("rotate", "rotate the source round-robin instead of fixed");
  if (!cli.parse(argc, argv)) return 1;

  const std::string family = cli.get("family");
  if (!wsn::is_regular_family(family)) {
    std::fprintf(stderr, "unknown --family %s (2D-3|2D-4|2D-8|3D-6)\n",
                 family.c_str());
    return 1;
  }
  const wsn::Joules budget = cli.get_f64("budget-uj") * 1e-6;
  if (!(budget > 0.0)) {
    std::fprintf(stderr, "--budget-uj must be positive\n");
    return 1;
  }
  const auto topo = wsn::make_paper_topology(family);
  const std::size_t max_rounds = cli.get_u64("max-rounds");
  const bool rotate = cli.get_flag("rotate");

  wsn::BatteryBank bank(topo->num_nodes(), budget);
  wsn::SimOptions options;
  options.battery = &bank;

  const wsn::NodeId center = wsn::graph_center(*topo);
  std::size_t first_death_round = 0;
  std::size_t first_failure_round = 0;

  std::size_t round = 1;
  for (; round <= max_rounds; ++round) {
    const wsn::NodeId source =
        rotate ? static_cast<wsn::NodeId>((round - 1) % topo->num_nodes())
               : center;
    if (!bank.alive(source)) break;  // a dead node cannot originate

    // Plans are recomputed per round: relay roles depend on the source.
    const wsn::RelayPlan plan = wsn::paper_plan(*topo, source);
    const wsn::BroadcastOutcome out =
        wsn::simulate_broadcast(*topo, plan, options);

    if (first_death_round == 0 &&
        bank.alive_count() < topo->num_nodes()) {
      first_death_round = round;
    }
    if (first_failure_round == 0 && !out.stats.fully_reached()) {
      first_failure_round = round;
      break;  // the network no longer delivers broadcasts
    }
  }

  std::printf("%s, %s source, %.0f uJ per node\n", topo->name().c_str(),
              rotate ? "rotating" : "fixed center",
              budget * 1e6);
  if (first_death_round == 0) {
    std::printf("  no node died in %zu rounds\n", round - 1);
  } else {
    std::printf("  first node death: round %zu\n", first_death_round);
  }
  if (first_failure_round == 0) {
    std::printf("  broadcast never failed (%zu rounds run)\n", round - 1);
  } else {
    std::printf("  first unreached broadcast: round %zu\n",
                first_failure_round);
  }
  std::printf("  nodes alive at the end: %zu / %zu, energy spent %.4f J\n",
              bank.alive_count(), topo->num_nodes(), bank.total_consumed());
  return 0;
}
