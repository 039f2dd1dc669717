#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

/// Implicit regular-lattice topology: neighbors computed on the fly from
/// lattice coordinates, no adjacency materialization.
///
/// A materialized `Topology` stores the CSR adjacency (8–16 bytes per
/// directed link) plus positions and ranges -- fine at the paper's 512
/// nodes, prohibitive at the 10⁶–10⁷ nodes the bulk engine targets.  All
/// four paper families (and the torus variants) are translation-invariant
/// up to boundary rules, so adjacency compresses to a handful of *shift
/// rules*: "the node `delta` ids away is a neighbor whenever my coordinates
/// satisfy this range/parity predicate".  An `ImplicitLattice` carries only
/// the dims and those rules, plus -- once the bulk kernel asks for them --
/// one bit per node per rule (rule_masks()).
///
/// Contract: for equal family/dims/spacing, `neighbors()` returns exactly
/// the byte sequence `Topology::neighbors()` returns on the materialized
/// mesh (ascending ids), `position()`/`tx_range()` are bit-identical
/// doubles, and `degree`/`adjacent`/`full_degree`/`family`/`name` agree.
/// The neighbor-parity tests (tests/test_implicit_lattice.cpp) hold this
/// contract across boundary, corner, interior and wrap nodes.
///
/// The shift rules double as the bulk simulator's kernel descriptors: a
/// slot's hearer set is Σ_rules shift(transmitters & rule_mask, delta),
/// evaluated word-at-a-time over uint64 bitsets (sim/bulk/).
namespace wsn {

/// One adjacency direction: node v has neighbor v + `delta` whenever v's
/// 1-based coordinates lie in the inclusive ranges and match the optional
/// (x + y) parity (the 2D-3 brick wall's alternating vertical link).
struct ShiftRule {
  std::int64_t delta = 0;
  int xlo = 1, xhi = 0;
  int ylo = 1, yhi = 0;
  int zlo = 1, zhi = 0;
  int parity = -1;  // -1 = no constraint; else requires ((x + y) & 1) == parity
};

class ImplicitLattice {
 public:
  /// Grid coordinate, 1-based like Grid2D/Grid3D (z == 1 for 2D families).
  struct Coord {
    int x = 1;
    int y = 1;
    int z = 1;
  };

  /// Fixed-capacity neighbor set (max degree over all families is 8).
  /// Ids ascending -- the same order a materialized Topology span has.
  class NeighborSet {
   public:
    [[nodiscard]] const NodeId* begin() const noexcept { return ids_.data(); }
    [[nodiscard]] const NodeId* end() const noexcept {
      return ids_.data() + count_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] NodeId operator[](std::size_t i) const noexcept {
      return ids_[i];
    }

   private:
    friend class ImplicitLattice;
    std::array<NodeId, 8> ids_{};
    std::uint32_t count_ = 0;
  };

  static ImplicitLattice mesh2d3(int m, int n, Meters spacing = 0.5);
  static ImplicitLattice mesh2d4(int m, int n, Meters spacing = 0.5);
  static ImplicitLattice mesh2d8(int m, int n, Meters spacing = 0.5);
  static ImplicitLattice mesh3d6(int m, int n, int l, Meters spacing = 0.5);
  /// Wrapped variants; m, n >= 3 so wrap links stay distinct per direction
  /// (same precondition as the materialized Torus2D4/Torus2D8).
  static ImplicitLattice torus2d4(int m, int n, Meters spacing = 0.5);
  static ImplicitLattice torus2d8(int m, int n, Meters spacing = 0.5);

  /// Family-keyed construction ("2D-3", "2D-4", "2D-8", "3D-6"); `l` is
  /// ignored for the 2D families.  Aborts on an unknown family.
  static ImplicitLattice make(std::string_view family, int m, int n,
                              int l = 1, Meters spacing = 0.5);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] int m() const noexcept { return m_; }
  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] int l() const noexcept { return l_; }
  [[nodiscard]] Meters spacing() const noexcept { return spacing_; }
  [[nodiscard]] bool wrapped() const noexcept { return wrapped_; }
  [[nodiscard]] bool is_3d() const noexcept { return l_ > 1 || family_ == "3D-6"; }

  /// "2D-3", "2D-4", "2D-8" or "3D-6" (wrap variants report the planar
  /// family, matching Torus2D4/Torus2D8).
  [[nodiscard]] const std::string& family() const noexcept { return family_; }
  /// Matches the materialized topology's name(), e.g. "2D-4 mesh 32x16".
  [[nodiscard]] std::string name() const;
  [[nodiscard]] int full_degree() const noexcept { return full_degree_; }

  [[nodiscard]] Coord to_coord(NodeId id) const noexcept;
  [[nodiscard]] NodeId to_id(Coord c) const noexcept;
  /// The grid's central coordinate -- the bulk CLI's default source.
  [[nodiscard]] NodeId central_node() const noexcept {
    return to_id({(m_ + 1) / 2, (n_ + 1) / 2, (l_ + 1) / 2});
  }

  /// Position in meters, bit-identical to the materialized grid's
  /// ((x-1)·s, (y-1)·s, (z-1)·s).
  [[nodiscard]] std::array<Meters, 3> position(NodeId id) const noexcept;

  [[nodiscard]] NeighborSet neighbors(NodeId id) const noexcept;
  /// neighbors(id).size(): one id per valid rule, counted without the set.
  [[nodiscard]] std::size_t degree(NodeId id) const noexcept;
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const noexcept;

  /// Euclidean distance via the planar embedding, the exact arithmetic
  /// Topology::distance performs (same subtraction order, same sqrt).
  [[nodiscard]] Meters distance(NodeId a, NodeId b) const noexcept;

  /// Distance to the farthest neighbor, bit-identical to the materialized
  /// topology: max over the neighbors of `distance`, or the wrapped
  /// metric's uniform override on tori.  Takes one sqrt, of the widest
  /// squared distance; sqrt is correctly rounded, hence monotone, so that
  /// is the same double as the widest distance.
  [[nodiscard]] Meters tx_range(NodeId id) const noexcept;

  /// True when tx_range(id) is a function of which rules are valid at
  /// `id` alone: on tori (one uniform range), and on meshes whose every
  /// k·spacing, k up to the longest axis, is an exact double (0.5 m and
  /// 2.5 m are; 0.3 m is not, and its ranges differ in the last ulp from
  /// node to node).  The bulk kernel then bills a transmitter's energy by
  /// its rule set instead of calling tx_range.
  [[nodiscard]] bool range_by_rule_set() const noexcept {
    return range_by_rule_set_;
  }

  /// The kernel descriptors: every adjacency direction as a shift rule.
  [[nodiscard]] const std::vector<ShiftRule>& rules() const noexcept {
    return rules_;
  }

  /// The rules as the bulk kernel reads them: per rule, a bitset over node
  /// ids whose bit v (bit v % 64 of word v / 64) is set where the rule
  /// applies at v; rule-major, (num_nodes() + 63) / 64 words per rule.
  /// Built on first use, once, and shared by copies of the lattice, so a
  /// simulator and every resolver probe on one lattice read one copy.
  /// Thread-safe.
  [[nodiscard]] std::span<const std::uint64_t> rule_masks() const;

  /// True when `rule` applies at coordinate `c`.
  [[nodiscard]] static bool rule_valid(const ShiftRule& rule,
                                       Coord c) noexcept {
    return c.x >= rule.xlo && c.x <= rule.xhi && c.y >= rule.ylo &&
           c.y <= rule.yhi && c.z >= rule.zlo && c.z <= rule.zhi &&
           (rule.parity < 0 || ((c.x + c.y) & 1) == rule.parity);
  }

 private:
  ImplicitLattice(std::string family, int m, int n, int l, Meters spacing,
                  int full_degree, bool wrapped, Meters range_override,
                  std::vector<ShiftRule> rules);

  std::string family_;
  int m_ = 1;
  int n_ = 1;
  int l_ = 1;
  Meters spacing_ = 0.5;
  int full_degree_ = 0;
  bool wrapped_ = false;
  /// > 0 on tori: the uniform tx range the materialized constructor
  /// installs with override_tx_range (planar wrap links would otherwise
  /// bill for the whole plane).
  Meters range_override_ = 0.0;
  std::size_t num_nodes_ = 1;
  std::vector<ShiftRule> rules_;
  /// Per rule, the neighbor's coordinate minus the node's: each rule is
  /// one translation over its valid range, read off when the lattice is
  /// built so tx_range never decodes a neighbor id.
  std::vector<Coord> steps_;
  bool range_by_rule_set_ = false;
  struct MaskCache;
  std::shared_ptr<MaskCache> masks_;

  /// Squared distance between two grid coordinates, with the
  /// position()/distance() arithmetic: per axis (a-1)·s - (b-1)·s.
  [[nodiscard]] double squared_distance(Coord a, Coord b) const noexcept;
};

}  // namespace wsn
