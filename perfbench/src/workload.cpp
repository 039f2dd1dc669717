#include "workload.h"

#include "common/random.h"

namespace meshbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
  return wsn::splitmix64(state);
}

}  // namespace meshbench
