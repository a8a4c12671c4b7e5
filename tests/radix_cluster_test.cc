// Radix-cluster invariants (§3.3.1): the output is a permutation of the
// input ordered on its radix bits; multi-pass and single-pass clusterings
// produce the identical array; the cluster bounds carried with the result
// partition the relation correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "algo/radix_cluster.h"
#include "util/rng.h"

namespace ccdb {
namespace {

std::vector<Bun> RandomRelation(size_t n, uint64_t seed,
                                uint32_t value_range = 0) {
  Rng rng(seed);
  std::vector<Bun> out(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t v = value_range == 0 ? rng.NextU32()
                                  : static_cast<uint32_t>(rng.NextBelow(value_range));
    out[i] = {static_cast<oid_t>(i), v};
  }
  return out;
}

// Accepts both plain and arena-backed (BunVec) vectors.
template <class Vec>
std::vector<Bun> SortedCopy(const Vec& in) {
  std::vector<Bun> v(in.begin(), in.end());
  std::sort(v.begin(), v.end(), [](const Bun& a, const Bun& b) {
    return a.tail != b.tail ? a.tail < b.tail : a.head < b.head;
  });
  return v;
}

TEST(RadixClusterOptionsTest, Validation) {
  EXPECT_TRUE((RadixClusterOptions{4, 2, {}}).Validate().ok());
  EXPECT_TRUE((RadixClusterOptions{4, 2, {3, 1}}).Validate().ok());
  EXPECT_FALSE((RadixClusterOptions{-1, 1, {}}).Validate().ok());
  EXPECT_FALSE((RadixClusterOptions{31, 1, {}}).Validate().ok());
  EXPECT_FALSE((RadixClusterOptions{4, 0, {}}).Validate().ok());
  EXPECT_FALSE((RadixClusterOptions{4, 5, {}}).Validate().ok());   // P > B
  EXPECT_FALSE((RadixClusterOptions{0, 2, {}}).Validate().ok());
  EXPECT_FALSE((RadixClusterOptions{4, 2, {2, 1}}).Validate().ok());  // sum
  EXPECT_FALSE((RadixClusterOptions{4, 2, {4, 0}}).Validate().ok());  // zero
  EXPECT_FALSE((RadixClusterOptions{4, 3, {2, 2}}).Validate().ok());  // size
}

TEST(RadixClusterOptionsTest, EffectiveBitsEvenSplit) {
  EXPECT_EQ((RadixClusterOptions{7, 2, {}}).EffectiveBits(),
            (std::vector<int>{4, 3}));
  EXPECT_EQ((RadixClusterOptions{12, 3, {}}).EffectiveBits(),
            (std::vector<int>{4, 4, 4}));
  EXPECT_EQ((RadixClusterOptions{5, 1, {}}).EffectiveBits(),
            (std::vector<int>{5}));
  EXPECT_EQ((RadixClusterOptions{6, 2, {5, 1}}).EffectiveBits(),
            (std::vector<int>{5, 1}));
}

TEST(RadixClusterTest, ZeroBitsCopies) {
  DirectMemory mem;
  auto input = RandomRelation(100, 1);
  auto out = RadixCluster(std::span<const Bun>(input),
                          RadixClusterOptions{0, 1, {}}, mem);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::vector<Bun>(out->tuples.begin(), out->tuples.end()), input);
  EXPECT_EQ(out->bits, 0);
}

TEST(RadixClusterTest, OutputIsPermutationOrderedOnRadix) {
  DirectMemory mem;
  auto input = RandomRelation(5000, 2);
  auto out = RadixCluster(std::span<const Bun>(input),
                          RadixClusterOptions{6, 1, {}}, mem);
  ASSERT_TRUE(out.ok());
  // Permutation: same multiset.
  EXPECT_EQ(SortedCopy(out->tuples), SortedCopy(input));
  // Ordered on the 6 radix bits.
  for (size_t i = 1; i < out->tuples.size(); ++i) {
    EXPECT_LE(out->tuples[i - 1].tail & 63u, out->tuples[i].tail & 63u);
  }
}

TEST(RadixClusterTest, MultiPassEqualsSinglePassExactly) {
  DirectMemory mem;
  auto input = RandomRelation(3000, 3);
  auto one = RadixCluster(std::span<const Bun>(input),
                          RadixClusterOptions{8, 1, {}}, mem);
  ASSERT_TRUE(one.ok());
  for (int passes : {2, 4, 8}) {
    auto multi = RadixCluster(std::span<const Bun>(input),
                              RadixClusterOptions{8, passes, {}}, mem);
    ASSERT_TRUE(multi.ok());
    // MSB-first multi-pass clustering is stable, so the arrays are
    // *identical*, not just equivalent.
    EXPECT_EQ(multi->tuples, one->tuples) << "passes=" << passes;
  }
}

TEST(RadixClusterTest, ExplicitBitSplitsMatchEvenSplit) {
  DirectMemory mem;
  auto input = RandomRelation(2000, 4);
  auto even = RadixCluster(std::span<const Bun>(input),
                           RadixClusterOptions{9, 3, {}}, mem);
  ASSERT_TRUE(even.ok());
  for (auto split : {std::vector<int>{3, 3, 3}, std::vector<int>{5, 2, 2},
                     std::vector<int>{1, 4, 4}, std::vector<int>{7, 1, 1}}) {
    auto got = RadixCluster(std::span<const Bun>(input),
                            RadixClusterOptions{9, 3, split}, mem);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->tuples, even->tuples);
  }
}

TEST(RadixClusterTest, StableWithinCluster) {
  // Tuples with equal radix value keep their input order (counting-scatter
  // clustering is stable).
  DirectMemory mem;
  std::vector<Bun> input;
  for (uint32_t i = 0; i < 64; ++i) input.push_back({i, i % 4});
  auto out = RadixCluster(std::span<const Bun>(input),
                          RadixClusterOptions{2, 1, {}}, mem);
  ASSERT_TRUE(out.ok());
  for (size_t i = 1; i < out->tuples.size(); ++i) {
    if (out->tuples[i - 1].tail == out->tuples[i].tail) {
      EXPECT_LT(out->tuples[i - 1].head, out->tuples[i].head);
    }
  }
}

TEST(RadixClusterTest, EmptyInput) {
  DirectMemory mem;
  std::vector<Bun> empty;
  auto out = RadixCluster(std::span<const Bun>(empty),
                          RadixClusterOptions{4, 2, {}}, mem);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->tuples.empty());
}

TEST(RadixClusterTest, SingleTuple) {
  DirectMemory mem;
  std::vector<Bun> one = {{7, 12345}};
  auto out = RadixCluster(std::span<const Bun>(one),
                          RadixClusterOptions{10, 2, {}}, mem);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::vector<Bun>(out->tuples.begin(), out->tuples.end()), one);
}

TEST(RadixClusterTest, InvalidOptionsAreRejected) {
  DirectMemory mem;
  auto input = RandomRelation(10, 5);
  auto bad = RadixCluster(std::span<const Bun>(input),
                          RadixClusterOptions{4, 9, {}}, mem);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RadixClusterTest, MurmurHashClustersByHashBits) {
  DirectMemory mem;
  auto input = RandomRelation(1000, 6, /*value_range=*/50);  // heavy dups
  auto out = RadixCluster<DirectMemory, MurmurHash>(
      std::span<const Bun>(input), RadixClusterOptions{5, 1, {}}, mem);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(SortedCopy(out->tuples), SortedCopy(input));
  for (size_t i = 1; i < out->tuples.size(); ++i) {
    EXPECT_LE(MurmurHash::Hash(out->tuples[i - 1].tail) & 31u,
              MurmurHash::Hash(out->tuples[i].tail) & 31u);
  }
}

TEST(ClusterBoundsTest, PartitionIsExact) {
  DirectMemory mem;
  auto input = RandomRelation(4096, 7);
  auto out = RadixCluster(std::span<const Bun>(input),
                          RadixClusterOptions{4, 2, {}}, mem);
  ASSERT_TRUE(out.ok());
  const std::vector<uint64_t>& bounds = out->bounds;
  ASSERT_EQ(bounds.size(), 17u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), input.size());
  for (size_t c = 0; c < 16; ++c) {
    for (uint64_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      EXPECT_EQ(out->tuples[i].tail & 15u, c);
    }
  }
}

// The bounds the last pass leaves behind equal a histogram of the radix
// values, for every bits x passes split and for an empty input.
class ClusterBoundsGrid
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ClusterBoundsGrid, CountsMatchHistogram) {
  auto [bits, passes] = GetParam();
  if (passes > std::max(bits, 1)) GTEST_SKIP();
  DirectMemory mem;
  RadixClusterOptions opt{bits, passes, {}};
  for (size_t n : {size_t{0}, size_t{5000}}) {
    auto input = RandomRelation(n, 8 + bits, /*value_range=*/1u << 14);
    auto out = RadixCluster<DirectMemory, MurmurHash>(
        std::span<const Bun>(input), opt, mem);
    ASSERT_TRUE(out.ok());
    uint32_t mask = LowMask32(bits);
    std::vector<uint64_t> expect(size_t{1} << bits, 0);
    for (const Bun& t : input) ++expect[MurmurHash::Hash(t.tail) & mask];
    ASSERT_EQ(out->bounds.size(), expect.size() + 1) << "n=" << n;
    EXPECT_EQ(out->bounds.front(), 0u);
    for (size_t c = 0; c < expect.size(); ++c) {
      ASSERT_EQ(out->bounds[c + 1] - out->bounds[c], expect[c])
          << "n=" << n << " cluster " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ClusterBoundsGrid,
                         ::testing::Combine(::testing::Values(0, 1, 6, 12),
                                            ::testing::Values(1, 2, 3)));

TEST(RadixClusterIntoTest, ReusedBuffersMatchFreshClustering) {
  // One output and scratch pair clusters relations that shrink, empty out
  // and grow again (and a 0-bit copy), as JoinOp does chunk after chunk:
  // each result equals a fresh clustering, never the previous input's tail.
  DirectMemory mem;
  ClusteredRelation out;
  BunVec scratch;
  uint64_t seed = 20;
  for (auto [n, bits, passes] : {std::tuple<size_t, int, int>{3000, 6, 2},
                                 {700, 6, 3},
                                 {0, 4, 2},
                                 {1500, 5, 1},
                                 {900, 0, 1}}) {
    auto input = RandomRelation(n, ++seed);
    RadixClusterOptions opt{bits, passes, {}};
    ASSERT_TRUE(RadixClusterInto(std::span<const Bun>(input), opt, mem, &out,
                                 &scratch)
                    .ok());
    auto fresh = RadixCluster(std::span<const Bun>(input), opt, mem);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(std::vector<Bun>(out.tuples.begin(), out.tuples.end()),
              std::vector<Bun>(fresh->tuples.begin(), fresh->tuples.end()))
        << "n=" << n;
    EXPECT_EQ(out.bounds, fresh->bounds) << "n=" << n;
    EXPECT_EQ(out.bits, bits);
  }
}

// Property sweep: permutation + ordering + bounds hold across a grid of
// (cardinality, bits, passes).
class RadixClusterSweep
    : public ::testing::TestWithParam<std::tuple<size_t, int, int>> {};

TEST_P(RadixClusterSweep, Invariants) {
  auto [n, bits, passes] = GetParam();
  if (passes > std::max(bits, 1)) GTEST_SKIP();
  DirectMemory mem;
  auto input = RandomRelation(n, 1000 + n + bits * 31 + passes);
  RadixClusterOptions opt{bits, passes, {}};
  auto out = RadixCluster(std::span<const Bun>(input), opt, mem);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->tuples.size(), input.size());
  EXPECT_EQ(SortedCopy(out->tuples), SortedCopy(input));
  uint32_t mask = LowMask32(bits);
  for (size_t i = 1; i < out->tuples.size(); ++i) {
    ASSERT_LE(out->tuples[i - 1].tail & mask, out->tuples[i].tail & mask);
  }
  ASSERT_EQ(out->bounds.size(), (size_t{1} << bits) + 1);
  EXPECT_EQ(out->bounds.back(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RadixClusterSweep,
    ::testing::Combine(::testing::Values<size_t>(0, 1, 63, 1024, 20000),
                       ::testing::Values(0, 1, 3, 6, 11),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ccdb
