#include "sim/stats.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>

#include "common/string_util.h"

namespace wsn {

std::string BroadcastStats::summary() const {
  std::string out;
  out += "tx=" + std::to_string(tx);
  out += " rx=" + std::to_string(rx);
  out += " dup=" + std::to_string(duplicates);
  out += " coll=" + std::to_string(collisions);
  // Fault-injection counters only when present, so fault-free output is
  // byte-identical to the pre-fault-subsystem format.
  if (lost_to_fading + lost_to_crash > 0) {
    out += " fade=" + std::to_string(lost_to_fading);
    out += " crash=" + std::to_string(lost_to_crash);
  }
  out += " delay=" + std::to_string(delay);
  out += " energy=" + sci(total_energy()) + "J";
  out += " reach=" + fixed(100.0 * reachability(), 1) + "%";
  return out;
}

double repeated_sum(double addend, std::size_t count) noexcept {
  double sum = 0.0;
  while (count > 0) {
    // The grid the next addition rounds onto: the ulp of sum's binade
    // [2^e, 2^(e+1)), which holds while sum + addend stays below the top.
    int exp = 0;
    (void)std::frexp(sum, &exp);  // sum = f * 2^exp, f in [0.5, 1)
    const bool graded = sum >= DBL_MIN && exp < DBL_MAX_EXP;
    const double ulp = graded ? std::ldexp(1.0, exp - DBL_MANT_DIG) : 0.0;
    // In units of the ulp everything is an exact integer below 2^54 ...
    const double quotient = graded ? addend / ulp : 0.0;  // exact scaling
    const double whole = std::floor(quotient);
    const auto room = graded ? static_cast<std::uint64_t>(
                                   (std::ldexp(1.0, exp) - sum) / ulp)
                             : 0;  // ulps to the binade top, exact
    // ... but zero, subnormal and topmost sums, a tie (which rounds to
    // even, so depends on sum's own last bit) and an addend that leaves
    // the binade at once take one plain step.
    if (!graded || quotient - whole == 0.5 ||
        whole >= static_cast<double>(room)) {
      const double next = sum + addend;
      if (next == sum) return sum;  // and so will every later addition
      sum = next;
      count -= 1;
      continue;
    }
    const auto step = static_cast<std::uint64_t>(std::nearbyint(quotient));
    if (step == 0) return sum;  // the addend rounds away: sum is final
    // Step t of the run starts from sum + (t - 1)·step and rounds on this
    // grid while that plus the exact addend stays below the top:
    // (t - 1)·step + quotient < room, i.e. (t - 1)·step <= room - 1 - whole.
    const std::uint64_t fits =
        (room - 1 - static_cast<std::uint64_t>(whole)) / step + 1;
    const std::uint64_t taken = std::min<std::uint64_t>(fits, count);
    const auto units = static_cast<std::uint64_t>(sum / ulp);
    sum = static_cast<double>(units + taken * step) * ulp;
    count -= static_cast<std::size_t>(taken);
  }
  return sum;
}

}  // namespace wsn
