#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"

/// Aggregate metrics of one broadcast, matching the paper's §4 definitions:
///
///   * tx          -- "total times the message is transmitted by nodes"
///   * rx          -- "total times the message is received" (successful
///                    decodes, duplicates included)
///   * duplicates  -- receptions by nodes that already had the message
///   * collisions  -- (slot, node) events where ≥ 2 neighbors transmitted
///                    simultaneously and nothing was decoded
///   * delay       -- slot of the last first-reception ("time from the
///                    source initiated the broadcast to the time the
///                    broadcast is over", in time slots)
///   * energy      -- E_Tx summed over transmissions plus E_Rx summed over
///                    successful receptions (the paper's accounting; see
///                    DESIGN.md §4)
///
/// Under fault injection (SimOptions::faults) two loss counters join the
/// collision count; each counts directed (transmitter, receiver) reception
/// opportunities destroyed, so decode + collide + fade + crash partitions
/// the links a perfect medium would have delivered (half-duplex deafness
/// excepted, which was never a delivery in the paper's medium either):
///
///   * lost_to_fading -- the fault model dropped the packet on that link
///   * lost_to_crash  -- the transmitter was down when its slot fired (one
///                       loss per would-be hearer) or the receiver was
///                       down when the packet arrived
namespace wsn {

struct BroadcastStats {
  std::size_t num_nodes = 0;
  std::size_t reached = 0;  // nodes holding the message, source included
  std::size_t tx = 0;
  std::size_t rx = 0;
  std::size_t duplicates = 0;
  std::size_t collisions = 0;
  std::size_t lost_to_fading = 0;  // nonzero only under fault injection
  std::size_t lost_to_crash = 0;   // nonzero only under fault injection
  Slot delay = 0;
  Joules tx_energy = 0.0;
  Joules rx_energy = 0.0;

  [[nodiscard]] Joules total_energy() const noexcept {
    return tx_energy + rx_energy;
  }

  /// Fraction of nodes reached, in [0, 1]; the paper's protocols guarantee
  /// 1.0.
  [[nodiscard]] double reachability() const noexcept {
    return num_nodes == 0
               ? 0.0
               : static_cast<double>(reached) / static_cast<double>(num_nodes);
  }

  [[nodiscard]] bool fully_reached() const noexcept {
    return reached == num_nodes;
  }

  /// One-line human-readable summary for examples and logs.
  [[nodiscard]] std::string summary() const;
};

/// The double that `count` additions `sum += addend`, starting from
/// sum = 0.0, leave -- bit for bit -- in O(binades) steps instead of
/// O(count).  An engine that bills one constant per event (rx_energy is
/// rx_cost once per decode and charged collision) counts the events and
/// forms the sum once with this.  Inside one binade of the running sum
/// every addition rounds onto the same grid, so it adds the same multiple
/// of that grid's ulp and a run of them is one exact integer step; the
/// additions that cross a binade edge or round a tie (addend/ulp a
/// half-integer) are made one by one, and once an addition leaves the sum
/// unchanged, so do all the rest.  `addend` must be finite and >= 0.
[[nodiscard]] double repeated_sum(double addend, std::size_t count) noexcept;

}  // namespace wsn
