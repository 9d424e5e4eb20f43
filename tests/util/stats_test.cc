#include "chameleon/util/stats.h"

#include <gtest/gtest.h>

namespace chameleon {
namespace {

TEST(KahanSumTest, RecoversLostLowOrderBits) {
  // Naive summation loses the 1.0 entirely: (1.0 + 1e100) - 1e100 == 0.
  KahanSum sum;
  sum.Add(1.0);
  sum.Add(1e100);
  sum.Add(-1e100);
  EXPECT_DOUBLE_EQ(sum.value(), 1.0);
}

TEST(KahanSumTest, ManySmallTermsStayExact) {
  KahanSum sum;
  for (int i = 0; i < 10; ++i) sum.Add(0.1);
  EXPECT_DOUBLE_EQ(sum.value(), 1.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);

  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sum of squared deviations is 32; sample variance 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

}  // namespace
}  // namespace chameleon
