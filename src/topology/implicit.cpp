#include "topology/implicit.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/assert.h"

namespace wsn {

namespace {

/// Interior step ranges for a ±1 move along an axis of size `extent`:
/// lo/hi such that the move stays on the grid.
struct AxisRange {
  int lo;
  int hi;
};
AxisRange axis_range(int step, int extent) noexcept {
  if (step > 0) return {1, extent - 1};
  if (step < 0) return {2, extent};
  return {1, extent};
}

constexpr std::size_t kWordBits = 64;

/// Sets bits [lo, hi] (inclusive), optionally only every second bit
/// starting at lo (the 2D-3 parity mask).
void set_bit_range(std::span<std::uint64_t> words, std::size_t lo,
                   std::size_t hi, bool strided) {
  // Alternating bits: 0x5555… anchored so bit `lo` is set.
  constexpr std::uint64_t kEven = 0x5555555555555555ull;
  for (std::size_t w = lo / kWordBits; w <= hi / kWordBits; ++w) {
    const std::size_t base = w * kWordBits;
    std::uint64_t range = ~std::uint64_t{0};
    if (base < lo) range &= ~std::uint64_t{0} << (lo - base);
    if (base + kWordBits - 1 > hi) {
      range &= ~std::uint64_t{0} >> (base + kWordBits - 1 - hi);
    }
    // The phase of `lo` within this word: `lo - base` wraps for words
    // past lo's, where it still has the parity of base - lo.
    if (strided) range &= ((lo - base) % 2 == 0) ? kEven : ~kEven;
    words[w] |= range;
  }
}

}  // namespace

ImplicitLattice::ImplicitLattice(std::string family, int m, int n, int l,
                                 Meters spacing, int full_degree,
                                 bool wrapped, Meters range_override,
                                 std::vector<ShiftRule> rules)
    : family_(std::move(family)),
      m_(m),
      n_(n),
      l_(l),
      spacing_(spacing),
      full_degree_(full_degree),
      wrapped_(wrapped),
      range_override_(range_override),
      num_nodes_(static_cast<std::size_t>(m) * static_cast<std::size_t>(n) *
                 static_cast<std::size_t>(l)),
      rules_(std::move(rules)),
      masks_(std::make_shared<MaskCache>()) {
  WSN_EXPECTS(m >= 1 && n >= 1 && l >= 1);
  WSN_EXPECTS(spacing > 0.0);
  // NodeId is 32-bit; the id space caps the lattice (ROADMAP targets
  // 10⁶–10⁷, far below).
  WSN_EXPECTS(num_nodes_ <= static_cast<std::size_t>(kInvalidNode));
  steps_.reserve(rules_.size());
  for (const ShiftRule& rule : rules_) {
    // The first node the rule applies at: its ranges clamped to the grid,
    // where one step along x or y settles the (x + y) parity.  A rule
    // that applies nowhere keeps a zero step no query reads.
    const int x0 = std::max(1, rule.xlo);
    const int y0 = std::max(1, rule.ylo);
    const int z0 = std::max(1, rule.zlo);
    Coord step{0, 0, 0};
    bool found = z0 > std::min(l_, rule.zhi);
    for (int y = y0; !found && y <= std::min({n_, rule.yhi, y0 + 1}); ++y) {
      for (int x = x0; !found && x <= std::min({m_, rule.xhi, x0 + 1});
           ++x) {
        const Coord c{x, y, z0};
        if (!rule_valid(rule, c)) continue;
        const Coord to = to_coord(static_cast<NodeId>(
            static_cast<std::int64_t>(to_id(c)) + rule.delta));
        step = {to.x - c.x, to.y - c.y, to.z - c.z};
        found = true;
      }
    }
    steps_.push_back(step);
  }
  // Every coordinate product (k - 1)·s and step difference below is exact
  // when k·s is for each k up to the longest axis, so a node's squared
  // distances, and with them its range, follow from its rule set alone.
  // Products are checked with fma: its result is the product's rounding
  // error, which is zero exactly when the product is exact.
  bool exact = true;
  for (int k = 1; exact && k <= std::max({m_, n_, l_}); ++k) {
    const auto kd = static_cast<double>(k);
    exact = std::fma(kd, spacing_, -(kd * spacing_)) == 0.0;
  }
  range_by_rule_set_ = range_override_ > 0.0 || exact;
}

struct ImplicitLattice::MaskCache {
  std::once_flag built;
  std::vector<std::uint64_t> words;
};

std::span<const std::uint64_t> ImplicitLattice::rule_masks() const {
  std::call_once(masks_->built, [this] {
    const std::size_t words = (num_nodes_ + kWordBits - 1) / kWordBits;
    const auto m = static_cast<std::size_t>(m_);
    std::vector<std::uint64_t>& masks = masks_->words;
    masks.assign(rules_.size() * words, 0);
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      const ShiftRule& rule = rules_[r];
      const std::span<std::uint64_t> mask(masks.data() + r * words, words);
      // Coordinate ranges are row-aligned: fill each valid row's [xlo, xhi]
      // span wholesale (every second bit under the 2D-3 parity constraint).
      for (int z = std::max(1, rule.zlo); z <= std::min(l_, rule.zhi); ++z) {
        for (int y = std::max(1, rule.ylo); y <= std::min(n_, rule.yhi);
             ++y) {
          int xlo = std::max(1, rule.xlo);
          const int xhi = std::min(m_, rule.xhi);
          if (rule.parity >= 0) {
            // (x + y) & 1 == parity pins x's parity for this row.
            const int want = rule.parity ^ (y & 1);
            if ((xlo & 1) != want) ++xlo;
          }
          if (xlo > xhi) continue;
          const std::size_t row =
              (static_cast<std::size_t>(z - 1) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(y - 1)) *
              m;
          set_bit_range(mask, row + static_cast<std::size_t>(xlo - 1),
                        row + static_cast<std::size_t>(xhi - 1),
                        rule.parity >= 0);
        }
      }
    }
  });
  return masks_->words;
}

ImplicitLattice ImplicitLattice::mesh2d4(int m, int n, Meters spacing) {
  std::vector<ShiftRule> rules;
  for (const int dx : {-1, 1}) {
    const AxisRange r = axis_range(dx, m);
    rules.push_back({dx, r.lo, r.hi, 1, n, 1, 1, -1});
  }
  for (const int dy : {-1, 1}) {
    const AxisRange r = axis_range(dy, n);
    rules.push_back({static_cast<std::int64_t>(dy) * m, 1, m, r.lo, r.hi, 1,
                     1, -1});
  }
  return {"2D-4", m, n, 1, spacing, 4, false, 0.0, std::move(rules)};
}

ImplicitLattice ImplicitLattice::mesh2d8(int m, int n, Meters spacing) {
  std::vector<ShiftRule> rules;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const AxisRange rx = axis_range(dx, m);
      const AxisRange ry = axis_range(dy, n);
      rules.push_back({static_cast<std::int64_t>(dy) * m + dx, rx.lo, rx.hi,
                       ry.lo, ry.hi, 1, 1, -1});
    }
  }
  return {"2D-8", m, n, 1, spacing, 8, false, 0.0, std::move(rules)};
}

ImplicitLattice ImplicitLattice::mesh2d3(int m, int n, Meters spacing) {
  std::vector<ShiftRule> rules;
  for (const int dx : {-1, 1}) {
    const AxisRange r = axis_range(dx, m);
    rules.push_back({dx, r.lo, r.hi, 1, n, 1, 1, -1});
  }
  // The brick wall's single vertical link: up when x + y is even
  // (geometry/region.h brick_has_up), down when odd.
  rules.push_back({static_cast<std::int64_t>(m), 1, m, 1, n - 1, 1, 1, 0});
  rules.push_back({-static_cast<std::int64_t>(m), 1, m, 2, n, 1, 1, 1});
  return {"2D-3", m, n, 1, spacing, 3, false, 0.0, std::move(rules)};
}

ImplicitLattice ImplicitLattice::mesh3d6(int m, int n, int l,
                                         Meters spacing) {
  const std::int64_t plane = static_cast<std::int64_t>(m) * n;
  std::vector<ShiftRule> rules;
  for (const int dx : {-1, 1}) {
    const AxisRange r = axis_range(dx, m);
    rules.push_back({dx, r.lo, r.hi, 1, n, 1, l, -1});
  }
  for (const int dy : {-1, 1}) {
    const AxisRange r = axis_range(dy, n);
    rules.push_back({static_cast<std::int64_t>(dy) * m, 1, m, r.lo, r.hi, 1,
                     l, -1});
  }
  for (const int dz : {-1, 1}) {
    const AxisRange r = axis_range(dz, l);
    rules.push_back({dz * plane, 1, m, 1, n, r.lo, r.hi, -1});
  }
  return {"3D-6", m, n, l, spacing, 6, false, 0.0, std::move(rules)};
}

ImplicitLattice ImplicitLattice::torus2d4(int m, int n, Meters spacing) {
  WSN_EXPECTS(m >= 3 && n >= 3);  // keep wrap links distinct per direction
  std::vector<ShiftRule> rules;
  for (const int dx : {-1, 1}) {
    const AxisRange r = axis_range(dx, m);
    rules.push_back({dx, r.lo, r.hi, 1, n, 1, 1, -1});
    // Wrap: x == m steps to x == 1 (delta 1 - m) and vice versa.
    const int edge = dx > 0 ? m : 1;
    rules.push_back({static_cast<std::int64_t>(dx) * (1 - m), edge, edge, 1,
                     n, 1, 1, -1});
  }
  for (const int dy : {-1, 1}) {
    const AxisRange r = axis_range(dy, n);
    rules.push_back({static_cast<std::int64_t>(dy) * m, 1, m, r.lo, r.hi, 1,
                     1, -1});
    const int edge = dy > 0 ? n : 1;
    rules.push_back({static_cast<std::int64_t>(dy) * (1 - n) * m, 1, m, edge,
                     edge, 1, 1, -1});
  }
  return {"2D-4T", m, n, 1, spacing, 4, true, spacing, std::move(rules)};
}

ImplicitLattice ImplicitLattice::torus2d8(int m, int n, Meters spacing) {
  WSN_EXPECTS(m >= 3 && n >= 3);
  std::vector<ShiftRule> rules;
  // Every (dx, dy) direction splits into up to four rules: x interior or
  // wrapped × y interior or wrapped, each a pure coordinate-range test.
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      struct Part {
        std::int64_t delta;
        int lo;
        int hi;
      };
      std::vector<Part> xs;
      std::vector<Part> ys;
      const AxisRange rx = axis_range(dx, m);
      xs.push_back({dx, rx.lo, rx.hi});
      if (dx != 0) {
        const int edge = dx > 0 ? m : 1;
        xs.push_back({static_cast<std::int64_t>(dx) * (1 - m), edge, edge});
      }
      const AxisRange ry = axis_range(dy, n);
      ys.push_back({static_cast<std::int64_t>(dy) * m, ry.lo, ry.hi});
      if (dy != 0) {
        const int edge = dy > 0 ? n : 1;
        ys.push_back(
            {static_cast<std::int64_t>(dy) * (1 - n) * m, edge, edge});
      }
      for (const Part& px : xs) {
        for (const Part& py : ys) {
          rules.push_back({px.delta + py.delta, px.lo, px.hi, py.lo, py.hi,
                           1, 1, -1});
        }
      }
    }
  }
  return {"2D-8T", m, n, 1, spacing, 8, true, spacing * std::sqrt(2.0),
          std::move(rules)};
}

ImplicitLattice ImplicitLattice::make(std::string_view family, int m, int n,
                                      int l, Meters spacing) {
  if (family == "2D-3") return mesh2d3(m, n, spacing);
  if (family == "2D-4") return mesh2d4(m, n, spacing);
  if (family == "2D-8") return mesh2d8(m, n, spacing);
  if (family == "3D-6") return mesh3d6(m, n, l, spacing);
  WSN_EXPECTS(false && "no implicit lattice for this family");
  return mesh2d4(m, n, spacing);
}

std::string ImplicitLattice::name() const {
  // Tori tag their family "2D-4T"/"2D-8T" but name themselves with the
  // planar family, matching Torus2D4/Torus2D8.
  std::string out = wrapped_ ? family_.substr(0, family_.size() - 1)
                             : family_;
  out += wrapped_ ? " torus " : " mesh ";
  out += std::to_string(m_);
  out += "x";
  out += std::to_string(n_);
  if (family_ == "3D-6") {
    out += "x";
    out += std::to_string(l_);
  }
  return out;
}

ImplicitLattice::Coord ImplicitLattice::to_coord(NodeId id) const noexcept {
  WSN_ASSERT(id < num_nodes_);
  // Ids are 32-bit, so 32-bit division suffices: row = (z-1)·n + (y-1).
  const auto m = static_cast<std::uint32_t>(m_);
  const auto n = static_cast<std::uint32_t>(n_);
  const std::uint32_t row = id / m;
  return {static_cast<int>(id - row * m) + 1, static_cast<int>(row % n) + 1,
          static_cast<int>(row / n) + 1};
}

NodeId ImplicitLattice::to_id(Coord c) const noexcept {
  WSN_ASSERT(c.x >= 1 && c.x <= m_ && c.y >= 1 && c.y <= n_ && c.z >= 1 &&
             c.z <= l_);
  const std::int64_t plane = static_cast<std::int64_t>(m_) * n_;
  return static_cast<NodeId>((c.z - 1) * plane +
                             static_cast<std::int64_t>(c.y - 1) * m_ +
                             (c.x - 1));
}

std::array<Meters, 3> ImplicitLattice::position(NodeId id) const noexcept {
  const Coord c = to_coord(id);
  return {static_cast<Meters>(c.x - 1) * spacing_,
          static_cast<Meters>(c.y - 1) * spacing_,
          static_cast<Meters>(c.z - 1) * spacing_};
}

ImplicitLattice::NeighborSet ImplicitLattice::neighbors(
    NodeId id) const noexcept {
  const Coord c = to_coord(id);
  NeighborSet out;
  for (const ShiftRule& rule : rules_) {
    if (!rule_valid(rule, c)) continue;
    WSN_ASSERT(out.count_ < out.ids_.size());
    out.ids_[out.count_++] = static_cast<NodeId>(
        static_cast<std::int64_t>(id) + rule.delta);
  }
  std::sort(out.ids_.begin(), out.ids_.begin() + out.count_);
  return out;
}

std::size_t ImplicitLattice::degree(NodeId id) const noexcept {
  const Coord c = to_coord(id);
  return static_cast<std::size_t>(std::count_if(
      rules_.begin(), rules_.end(),
      [c](const ShiftRule& rule) { return rule_valid(rule, c); }));
}

bool ImplicitLattice::adjacent(NodeId a, NodeId b) const noexcept {
  const NeighborSet set = neighbors(a);
  return std::find(set.begin(), set.end(), b) != set.end();
}

double ImplicitLattice::squared_distance(Coord a, Coord b) const noexcept {
  const double dx = static_cast<Meters>(a.x - 1) * spacing_ -
                    static_cast<Meters>(b.x - 1) * spacing_;
  const double dy = static_cast<Meters>(a.y - 1) * spacing_ -
                    static_cast<Meters>(b.y - 1) * spacing_;
  const double dz = static_cast<Meters>(a.z - 1) * spacing_ -
                    static_cast<Meters>(b.z - 1) * spacing_;
  return dx * dx + dy * dy + dz * dz;
}

Meters ImplicitLattice::distance(NodeId a, NodeId b) const noexcept {
  return std::sqrt(squared_distance(to_coord(a), to_coord(b)));
}

Meters ImplicitLattice::tx_range(NodeId id) const noexcept {
  if (range_override_ > 0.0) return range_override_;
  const Coord c = to_coord(id);
  double widest = 0.0;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    if (!rule_valid(rules_[r], c)) continue;
    const Coord& step = steps_[r];
    widest = std::max(
        widest, squared_distance(c, {c.x + step.x, c.y + step.y,
                                     c.z + step.z}));
  }
  return std::sqrt(widest);
}

}  // namespace wsn
