// Regenerates paper Figure 6's argument: in the 2D-8 mesh, forwarding
// along a diagonal beats forwarding along an axis -- fewer hops corner to
// corner (3 vs 6) and a higher ETR at the relay (5/8 vs 3/8).
//
// We measure both claims on the 4×4 grid of the figure by simulating the
// two single-relay hand-offs it describes.

#include <cstdio>

#include "sim/simulator.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d8.h"

namespace {

/// ETR of node `relay` when it forwards a message first transmitted by
/// `from` (everything else passive).
double handoff_etr(const wsn::Mesh2D8& topo, wsn::Vec2 from,
                   wsn::Vec2 relay) {
  const wsn::Grid2D& g = topo.grid();
  wsn::RelayPlan plan = wsn::RelayPlan::empty(topo.num_nodes(),
                                              g.to_id(from));
  plan.set_offsets(g.to_id(relay), {1});
  const auto out = wsn::simulate_broadcast(topo, plan);
  for (const wsn::TxRecord& rec : out.transmissions) {
    if (rec.node == g.to_id(relay)) {
      return static_cast<double>(rec.fresh) /
             static_cast<double>(topo.degree(rec.node));
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  const wsn::Mesh2D8 topo(4, 4);
  const wsn::Grid2D& g = topo.grid();

  std::printf("Figure 6: diagonal vs axis forwarding in the 2D-8 mesh\n\n");

  // Hop counts (1,4) -> (4,1): BFS distance is the Chebyshev metric.
  const auto dist = wsn::bfs_distances(topo, g.to_id({1, 4}));
  std::printf("hops (1,4) -> (4,1) along the mesh: %u (paper: 3 diagonal "
              "hops vs 6 axis hops)\n\n",
              dist[g.to_id({4, 1})]);

  // ETR of (3,2) receiving from (2,3) (diagonal) vs from (2,2) (axis).
  const double diagonal = handoff_etr(topo, {2, 3}, {3, 2});
  const double axis = handoff_etr(topo, {2, 2}, {3, 2});
  std::printf("ETR of relay (3,2) fed along the diagonal from (2,3): %.3f "
              "(paper: 5/8 = 0.625)\n",
              diagonal);
  std::printf("ETR of relay (3,2) fed along the X axis from (2,2):   %.3f "
              "(paper: 3/8 = 0.375)\n",
              axis);
  return 0;
}
