#include "stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Stats, NearestRankMatchesTheDefinition) {
  EXPECT_EQ(nearest_rank(100, 0.50), 50u);
  EXPECT_EQ(nearest_rank(100, 0.99), 99u);  // not 100: 0.99 * 100 is exact
  EXPECT_EQ(nearest_rank(101, 0.50), 51u);
  EXPECT_EQ(nearest_rank(1, 0.99), 1u);
  EXPECT_EQ(nearest_rank(10, 0.01), 1u);
  EXPECT_EQ(nearest_rank(0, 0.5), 0u);
}

TEST(Stats, QuantilesAreActualSamples) {
  const std::vector<double> v = one_to(2000);
  EXPECT_EQ(quantile(v, 0.50), 1000.0);
  EXPECT_EQ(quantile(v, 0.99), 1980.0);
}

TEST(Stats, TenSamplesBeyondRule) {
  // 1000 samples: p99 is rank 990, exactly ten beyond -> reportable.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(quantile(one_to(1000), 0.99).has_value());
  // 999 samples: rank 990, nine beyond -> left out, never reported as 0.
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(quantile(one_to(999), 0.99).has_value());
  // p50 needs twenty samples.
  EXPECT_TRUE(quantile(one_to(20), 0.50).has_value());
  EXPECT_FALSE(quantile(one_to(19), 0.50).has_value());
  EXPECT_FALSE(quantile({}, 0.50).has_value());
}

TEST(Stats, CustomMinimumBeyond) {
  EXPECT_EQ(quantile(one_to(3), 0.50, 0), 2.0);
  EXPECT_FALSE(quantile(one_to(3), 0.50, 2).has_value());
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

TEST(Stats, SlicedQuantileTakesTheQuietChunk) {
  // Four chunks of 100: one slow burst, three quiet ones.
  std::vector<double> v;
  for (int chunk = 0; chunk < 4; ++chunk) {
    for (int i = 1; i <= 100; ++i) v.push_back(chunk == 1 ? 1000.0 + i : i);
  }
  // Per-chunk p50s are 50, 1050, 50, 50; the lower quartile ignores the
  // burst, the maximum sees it.
  EXPECT_EQ(sliced_quantile(v, 0.50, 4, 0.25), 50.0);
  EXPECT_EQ(sliced_quantile(v, 0.50, 4, 1.0), 1050.0);
}

TEST(Stats, SlicedQuantileKeepsTenBeyondInEveryChunk) {
  const std::vector<double> v = one_to(2500);
  // p99 needs 1000 samples a chunk: only two chunks of 1250 fit, whatever
  // is asked; each one's p99 is its 1238th sample.
  EXPECT_EQ(sliced_quantile(v, 0.99, 10, 1.0), 2488.0);
  EXPECT_EQ(sliced_quantile(v, 0.99, 10, 0.25), 1238.0);
  EXPECT_FALSE(sliced_quantile(one_to(999), 0.99, 10, 0.5).has_value());
  // With one slice it is the plain quantile.
  EXPECT_EQ(sliced_quantile(v, 0.50, 1, 0.5), quantile(v, 0.50));
}

}  // namespace
}  // namespace perfbench
