#include "sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>

namespace wsn {
namespace {

TEST(Stats, ReachabilityFraction) {
  BroadcastStats stats;
  stats.num_nodes = 512;
  stats.reached = 512;
  EXPECT_DOUBLE_EQ(stats.reachability(), 1.0);
  EXPECT_TRUE(stats.fully_reached());
  stats.reached = 256;
  EXPECT_DOUBLE_EQ(stats.reachability(), 0.5);
  EXPECT_FALSE(stats.fully_reached());
}

TEST(Stats, ReachabilityOfEmptyNetworkIsZero) {
  const BroadcastStats stats;
  EXPECT_DOUBLE_EQ(stats.reachability(), 0.0);
}

TEST(Stats, TotalEnergySumsTxAndRx) {
  BroadcastStats stats;
  stats.tx_energy = 1.5e-3;
  stats.rx_energy = 2.5e-3;
  EXPECT_DOUBLE_EQ(stats.total_energy(), 4.0e-3);
}

TEST(Stats, SummaryMentionsEveryMetric) {
  BroadcastStats stats;
  stats.num_nodes = 10;
  stats.reached = 10;
  stats.tx = 7;
  stats.rx = 21;
  stats.duplicates = 3;
  stats.collisions = 2;
  stats.delay = 5;
  stats.tx_energy = 1e-4;
  stats.rx_energy = 1e-4;
  const std::string s = stats.summary();
  EXPECT_NE(s.find("tx=7"), std::string::npos);
  EXPECT_NE(s.find("rx=21"), std::string::npos);
  EXPECT_NE(s.find("dup=3"), std::string::npos);
  EXPECT_NE(s.find("coll=2"), std::string::npos);
  EXPECT_NE(s.find("delay=5"), std::string::npos);
  EXPECT_NE(s.find("reach=100.0%"), std::string::npos);
}

double plain_sum(double addend, std::size_t count) {
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += addend;
  return sum;
}

// The closed form against the loop it replaces, count by count, on the
// radio model's own constants.
TEST(RepeatedSum, MatchesThePlainLoopOnRadioConstants) {
  for (const double addend : {512 * 50e-9, 2048 * 50e-9, 1e-5, 0.1, 1.0}) {
    double sum = 0.0;
    for (std::size_t count = 0; count <= 5000; ++count) {
      ASSERT_EQ(repeated_sum(addend, count), sum) << addend << " x " << count;
      sum += addend;
    }
  }
}

// Random addends and counts up to 3·10⁶, including few-bit addends whose
// ratio to the sum's ulp lands on a half (a tie) in some binade.
TEST(RepeatedSum, MatchesThePlainLoopOnRandomCases) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::uniform_int_distribution<int> exponent(-40, 10);
  std::uniform_int_distribution<std::uint64_t> few_bits(1, 255);
  std::uniform_int_distribution<int> shift(-60, 4);
  for (int i = 0; i < 400; ++i) {
    const double addend =
        i % 2 == 0 ? std::ldexp(mantissa(rng), exponent(rng))
                   : std::ldexp(static_cast<double>(few_bits(rng)), shift(rng));
    const std::size_t count = i % 8 == 0
                                  ? std::size_t{3'000'000} - rng() % 1000
                                  : static_cast<std::size_t>(rng() % 200'000);
    ASSERT_EQ(repeated_sum(addend, count), plain_sum(addend, count))
        << std::hexfloat << addend << " x " << count;
  }
}

TEST(RepeatedSum, EdgeAddends) {
  EXPECT_EQ(repeated_sum(0.0, 1'000'000), 0.0);
  EXPECT_EQ(repeated_sum(1.0, 0), 0.0);
  // An addend that rounds away once the sum is large: the sum stalls at
  // 2^53 exactly as the loop does.
  EXPECT_EQ(repeated_sum(1.0, std::size_t{1} << 53 | 12345),
            std::ldexp(1.0, 53));
  const double tiny = std::ldexp(1.0, -1074);  // subnormal
  EXPECT_EQ(repeated_sum(tiny, 100'000), plain_sum(tiny, 100'000));
  EXPECT_EQ(repeated_sum(0.5, 7), 3.5);
}

}  // namespace
}  // namespace wsn
