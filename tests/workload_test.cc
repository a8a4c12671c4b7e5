// Workload generators (Zipf).
#include <gtest/gtest.h>

#include <map>

#include "util/zipf.h"

namespace ccdb {
namespace {

TEST(ZipfTest, RanksStayInRange) {
  ZipfGenerator z(1000, 0.99, 42);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.Next(), 1000u);
  }
}

TEST(ZipfTest, Deterministic) {
  ZipfGenerator a(500, 0.8, 7), b(500, 0.8, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator z(10, 0.0, 3);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.Next()];
  for (const auto& [rank, n] : counts) {
    EXPECT_NEAR(static_cast<double>(n) / kDraws, 0.1, 0.03) << rank;
  }
}

TEST(ZipfTest, HighThetaConcentratesOnLowRanks) {
  ZipfGenerator z(100000, 0.99, 11);
  constexpr int kDraws = 200000;
  int rank0 = 0, top10 = 0;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t r = z.Next();
    rank0 += r == 0;
    top10 += r < 10;
  }
  double p0 = static_cast<double>(rank0) / kDraws;
  // Theory: P(rank 0) = 1/zeta(100000, 0.99) ~ 1/12.9 ~ 7.8%.
  EXPECT_GT(p0, 0.04);
  EXPECT_LT(p0, 0.15);
  // Top-10 ranks carry ~23% of all draws (sum_{i<=10} i^-.99 / zeta).
  EXPECT_GT(static_cast<double>(top10) / kDraws, 0.15);
  // Versus the uniform share of 1/100000: four orders of magnitude.
  EXPECT_GT(p0, 1000.0 / 100000);
}

TEST(ZipfTest, SkewGrowsWithTheta) {
  auto top_share = [](double theta) {
    ZipfGenerator z(1000, theta, 19);
    int hits = 0;
    for (int i = 0; i < 50000; ++i) hits += z.Next() == 0;
    return static_cast<double>(hits) / 50000;
  };
  EXPECT_LT(top_share(0.0), top_share(0.5));
  EXPECT_LT(top_share(0.5), top_share(0.99));
}

}  // namespace
}  // namespace ccdb
