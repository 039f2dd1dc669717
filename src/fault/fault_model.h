#pragma once

#include <cstddef>

#include "common/types.h"

/// Fault injection interface consulted by the simulators.
///
/// The paper's medium is perfect: every transmission reaches every
/// neighbor, and the only loss mechanism is the (fully predictable)
/// collision.  A `FaultModel` punches holes in that assumption -- per-link
/// packet loss and per-node crash windows -- without touching the
/// slot-synchronous semantics: the simulator asks, for each directed
/// (transmitter, receiver) pair in each slot, whether the packet survives,
/// and for each node whether its radio is operational that slot.
///
/// Contract:
///
///   * `begin_run()` is called once by the simulator before the first
///     slot; implementations reset any per-run state there so the same
///     model instance can score several runs (the resolver simulates
///     repeatedly).  Two runs of the same model + seed + plan must produce
///     identical answers -- fault injection is seeded, never wall-clock
///     random.  A pure memo -- one that caches answers which are functions
///     of (seed, link/node, slot) alone, like the Gilbert-Elliott chain
///     words -- may outlive a run, since no run can change what it holds.
///   * `node_up(v, s)` false means v neither transmits nor receives in
///     slot s.  A scheduled transmission during an outage is lost, not
///     deferred (the radio was off when its timer fired).
///   * `link_delivers(tx, rx, s)` false means rx does not decode tx's
///     packet in slot s.  A faded packet also contributes no interference:
///     loss models signal below the decode *and* carrier-sense thresholds,
///     the standard packet-level abstraction (cf. Xin & Xia's noisy-mesh
///     evaluation).  Queried once per directed link per slot, only for
///     links whose transmitter actually fired.
///   * `count_delivered(tx, rx, first_slot, stride, rounds)` is the
///     per-link batch form of `link_delivers` for probe passes (the link
///     estimator): it returns how many of the `rounds` slots first_slot,
///     first_slot + stride, ... would deliver on tx -> rx, and equals a
///     loop of `link_delivers` over those slots -- the default is that
///     loop.  The slots must fit in `Slot`.  Where answers are pure
///     functions of (seed, link, slot), as in fault/models.h, an override
///     may compute the count without reading or writing any cache.
///
/// Implementations may keep mutable per-link state (the Gilbert-Elliott
/// chain words are); therefore one model instance must not be shared by
/// concurrent simulations -- Monte-Carlo harnesses construct one per
/// trial (see analysis/resilience.h).
namespace wsn {

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Resets per-run state; the simulator calls it before slot 0.
  virtual void begin_run() {}

  /// True if `node`'s radio is operational during `slot`.
  [[nodiscard]] virtual bool node_up([[maybe_unused]] NodeId node,
                                     [[maybe_unused]] Slot slot) {
    return true;
  }

  /// True if the packet on the directed link tx -> rx survives `slot`.
  [[nodiscard]] virtual bool link_delivers([[maybe_unused]] NodeId tx,
                                           [[maybe_unused]] NodeId rx,
                                           [[maybe_unused]] Slot slot) {
    return true;
  }

  /// Number of the `rounds` slots first_slot + i * stride (i < rounds) in
  /// which the packet on tx -> rx survives.
  [[nodiscard]] virtual std::size_t count_delivered(NodeId tx, NodeId rx,
                                                    Slot first_slot,
                                                    Slot stride,
                                                    std::size_t rounds) {
    std::size_t delivered = 0;
    Slot slot = first_slot;
    for (std::size_t round = 0; round < rounds; ++round, slot += stride) {
      if (link_delivers(tx, rx, slot)) delivered += 1;
    }
    return delivered;
  }
};

}  // namespace wsn
