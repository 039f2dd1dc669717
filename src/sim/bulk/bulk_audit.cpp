#include "sim/bulk/bulk_audit.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/assert.h"

namespace wsn {

BulkAuditReport audit_bulk_outcome(const ImplicitLattice& lat,
                                   const BroadcastOutcome& outcome,
                                   NodeId source,
                                   std::size_t sample_stride) {
  WSN_EXPECTS(outcome.first_rx.size() == lat.num_nodes());
  WSN_EXPECTS(source < lat.num_nodes());

  BulkAuditReport report;
  report.nodes = lat.num_nodes();
  report.reached = outcome.stats.reached;
  report.transmissions = outcome.transmissions.size();

  // Relay-mean ETR in exact integer arithmetic: fresh/degree accumulated
  // in units of 1/840 (lcm of every lattice degree <= 8), one division at
  // the very end.  This makes the mean comparable bit-for-bit against
  // closed-form models using the same accumulation.
  // A node's degree is the number of rules valid at it: its bits in the
  // shared rule masks, with no coordinate decode per record.
  const std::span<const std::uint64_t> masks = lat.rule_masks();
  const std::size_t num_rules = lat.rules().size();
  const std::size_t words = (lat.num_nodes() + 63) / 64;
  std::uint64_t acc = 0;
  std::size_t relays = 0;
  for (const TxRecord& rec : outcome.transmissions) {
    report.fresh_total += rec.fresh;
    if (rec.node == source) continue;
    const std::size_t w = rec.node / 64;
    const unsigned bit = rec.node % 64;
    std::size_t deg = 0;
    for (std::size_t r = 0; r < num_rules; ++r) {
      deg += (masks[r * words + w] >> bit) & 1u;
    }
    WSN_ASSERT(deg >= 1 && deg <= 8);
    acc += rec.fresh * (840u / static_cast<std::uint64_t>(deg));
    relays += 1;
  }
  if (relays > 0) {
    report.relay_mean_etr = (static_cast<double>(acc) / 840.0) /
                            static_cast<double>(relays);
  }

  const std::size_t stride = std::max<std::size_t>(1, sample_stride);
  for (std::size_t v = 0; v < lat.num_nodes(); v += stride) {
    report.sampled += 1;
    if (outcome.first_rx[v] == kNeverSlot) report.sampled_unreached += 1;
  }
  return report;
}

}  // namespace wsn
