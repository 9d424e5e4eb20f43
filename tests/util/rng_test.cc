#include "chameleon/util/rng.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "chameleon/util/stats.h"

namespace chameleon {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.UniformDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    stats.Add(x);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(11);
  std::uint64_t counts[10] = {};
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t x = rng.UniformInt(10);
    ASSERT_LT(x, 10u);
    ++counts[x];
  }
  for (const std::uint64_t c : counts) {
    EXPECT_GT(c, 4300u);  // ~5000 expected per bucket
    EXPECT_LT(c, 5700u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

/// Standard normal pdf/cdf for the closed-form truncated moments.
double NormalPdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * 3.14159265358979323846);
}

double NormalCdf(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

/// Closed-form mean and stddev of N(mu, sigma^2) truncated to [lo, hi].
void TruncatedMoments(double mu, double sigma, double lo, double hi,
                      double* mean, double* stddev) {
  const double a = (lo - mu) / sigma;
  const double b = (hi - mu) / sigma;
  const double z = NormalCdf(b) - NormalCdf(a);
  const double ratio = (NormalPdf(a) - NormalPdf(b)) / z;
  *mean = mu + sigma * ratio;
  const double var =
      sigma * sigma *
      (1.0 + (a * NormalPdf(a) - b * NormalPdf(b)) / z - ratio * ratio);
  *stddev = std::sqrt(var);
}

TEST(RngTest, TruncatedGaussianStaysInsideEveryWindow) {
  Rng rng(7);
  const struct {
    double mu, sigma, lo, hi;
  } kWindows[] = {
      {0.0, 1.0, -1.0, 1.0},   // mode covered, wide
      {0.0, 0.05, 0.0, 1.0},   // perturbation shape: half line, tiny sigma
      {0.0, 1.0, 0.2, 0.3},    // narrow slab
      {0.0, 1.0, 4.0, 8.0},    // far right tail (rejection would stall)
      {0.0, 1.0, -8.0, -4.0},  // far left tail (mirrored)
      {0.5, 0.2, 0.4, 0.6},    // nonzero mean
  };
  for (const auto& w : kWindows) {
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.TruncatedGaussian(w.mu, w.sigma, w.lo, w.hi);
      ASSERT_GE(x, w.lo);
      ASSERT_LE(x, w.hi);
    }
  }
}

TEST(RngTest, TruncatedGaussianMomentsMatchClosedForm) {
  // Three regimes: mode-covered rejection, narrow-window uniform
  // proposal, and the one-sided tail sampler.
  const struct {
    double mu, sigma, lo, hi;
  } kCases[] = {
      {0.0, 1.0, -1.0, 2.0},
      {0.0, 1.0, 0.1, 0.5},
      {0.0, 1.0, 3.0, 10.0},
      {0.25, 0.1, 0.0, 1.0},
  };
  int seed = 100;
  for (const auto& c : kCases) {
    Rng rng(static_cast<std::uint64_t>(seed++));
    RunningStats stats;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
      stats.Add(rng.TruncatedGaussian(c.mu, c.sigma, c.lo, c.hi));
    }
    double mean = 0.0;
    double stddev = 0.0;
    TruncatedMoments(c.mu, c.sigma, c.lo, c.hi, &mean, &stddev);
    // 5-sigma Monte Carlo band on the sample mean; stddev gets a looser
    // relative band.
    EXPECT_NEAR(stats.mean(), mean, 5.0 * stddev / std::sqrt(1.0 * n))
        << "window [" << c.lo << ", " << c.hi << "]";
    EXPECT_NEAR(stats.stddev(), stddev, 0.05 * stddev)
        << "window [" << c.lo << ", " << c.hi << "]";
  }
}

TEST(RngTest, TruncatedGaussianDegenerateSigmaClampsMean) {
  Rng rng(3);
  EXPECT_EQ(rng.TruncatedGaussian(0.5, 0.0, 0.0, 1.0), 0.5);
  EXPECT_EQ(rng.TruncatedGaussian(-2.0, 0.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(rng.TruncatedGaussian(7.0, 0.0, 0.0, 1.0), 1.0);
}

TEST(RngTest, TruncatedGaussianDeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.TruncatedGaussian(0.0, 0.3, 0.0, 1.0),
              b.TruncatedGaussian(0.0, 0.3, 0.0, 1.0));
  }
}

TEST(KahanSumTest, CompensatesSmallTerms) {
  KahanSum sum;
  sum.Add(1e16);
  for (int i = 0; i < 10000; ++i) sum.Add(1.0);
  sum.Add(-1e16);
  EXPECT_DOUBLE_EQ(sum.value(), 10000.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

}  // namespace
}  // namespace chameleon
