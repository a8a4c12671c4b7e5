// §3.2 selection structures: cache-conscious B+-tree, T-tree and binary
// search. Correctness against reference implementations across parameter
// sweeps, plus the miss-count comparison that motivates the [Ron98]
// cache-line-node claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algo/cc_btree.h"
#include "algo/sorted_search.h"
#include "algo/ttree.h"
#include "mem/access.h"
#include "util/rng.h"

namespace ccdb {
namespace {

std::vector<Bun> RandomData(size_t n, uint64_t seed, uint32_t range) {
  Rng rng(seed);
  std::vector<Bun> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {static_cast<oid_t>(i),
              static_cast<uint32_t>(rng.NextBelow(range))};
  }
  return out;
}

std::vector<oid_t> ReferenceEq(const std::vector<Bun>& data, uint32_t key) {
  std::vector<oid_t> out;
  for (const Bun& b : data) {
    if (b.tail == key) out.push_back(b.head);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<oid_t> ReferenceRange(const std::vector<Bun>& data, uint32_t lo,
                                  uint32_t hi) {
  std::vector<oid_t> out;
  for (const Bun& b : data) {
    if (lo <= b.tail && b.tail <= hi) out.push_back(b.head);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<oid_t> Sorted(std::vector<oid_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(BTreeOptionsTest, Validation) {
  EXPECT_TRUE(BTreeOptions{64}.Validate().ok());
  EXPECT_FALSE(BTreeOptions{4}.Validate().ok());
  EXPECT_FALSE(BTreeOptions{65540 * 2}.Validate().ok());
  EXPECT_FALSE(BTreeOptions{30}.Validate().ok());  // not multiple of 4
}

TEST(CcBTreeTest, EmptyAndSingle) {
  DirectMemory mem;
  std::vector<Bun> empty;
  auto t0 = CacheConsciousBTree::Build(empty);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0->size(), 0u);
  std::vector<oid_t> hits;
  t0->FindEq(5, mem, &hits);
  EXPECT_TRUE(hits.empty());

  std::vector<Bun> one = {{9, 42}};
  auto t1 = CacheConsciousBTree::Build(one);
  ASSERT_TRUE(t1.ok());
  t1->FindEq(42, mem, &hits);
  EXPECT_EQ(hits, (std::vector<oid_t>{9}));
  hits.clear();
  t1->FindEq(41, mem, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(CcBTreeTest, LowerBoundSemantics) {
  DirectMemory mem;
  std::vector<Bun> data = {{0, 10}, {1, 20}, {2, 20}, {3, 30}};
  auto t = CacheConsciousBTree::Build(data, BTreeOptions{8});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->LowerBound(5, mem), 0u);
  EXPECT_EQ(t->LowerBound(10, mem), 0u);
  EXPECT_EQ(t->LowerBound(11, mem), 1u);
  EXPECT_EQ(t->LowerBound(20, mem), 1u);  // first duplicate
  EXPECT_EQ(t->LowerBound(25, mem), 3u);
  EXPECT_EQ(t->LowerBound(30, mem), 3u);
  EXPECT_EQ(t->LowerBound(31, mem), 4u);  // past the end
}

TEST(CcBTreeTest, HeightShrinksWithNodeSize) {
  auto data = RandomData(100000, 1, UINT32_MAX);
  auto t32 = CacheConsciousBTree::Build(data, BTreeOptions{32});
  auto t512 = CacheConsciousBTree::Build(data, BTreeOptions{512});
  ASSERT_TRUE(t32.ok() && t512.ok());
  EXPECT_GT(t32->height(), t512->height());
  EXPECT_EQ(t32->fanout(), 8u);
  EXPECT_EQ(t512->fanout(), 128u);
}

TEST(CcBTreeTest, DuplicatesAcrossNodeBoundaries) {
  DirectMemory mem;
  // 50 copies of each of 4 keys with tiny nodes: duplicates span chunks.
  std::vector<Bun> data;
  for (uint32_t k = 0; k < 4; ++k) {
    for (uint32_t i = 0; i < 50; ++i) {
      data.push_back({k * 100 + i, k * 7});
    }
  }
  auto t = CacheConsciousBTree::Build(data, BTreeOptions{16});
  ASSERT_TRUE(t.ok());
  for (uint32_t k = 0; k < 4; ++k) {
    std::vector<oid_t> hits;
    t->FindEq(k * 7, mem, &hits);
    EXPECT_EQ(Sorted(hits), ReferenceEq(data, k * 7));
    EXPECT_EQ(hits.size(), 50u);
  }
}

TEST(TTreeOptionsTest, Validation) {
  EXPECT_TRUE(TTreeOptions{8}.Validate().ok());
  EXPECT_FALSE(TTreeOptions{0}.Validate().ok());
  EXPECT_FALSE(TTreeOptions{5000}.Validate().ok());
}

TEST(TTreeTest, EmptyAndSingle) {
  DirectMemory mem;
  std::vector<Bun> empty;
  auto t0 = TTree::Build(empty);
  ASSERT_TRUE(t0.ok());
  std::vector<oid_t> hits;
  t0->FindEq(1, mem, &hits);
  t0->FindRange(0, 100, mem, &hits);
  EXPECT_TRUE(hits.empty());

  std::vector<Bun> one = {{3, 7}};
  auto t1 = TTree::Build(one);
  ASSERT_TRUE(t1.ok());
  t1->FindEq(7, mem, &hits);
  EXPECT_EQ(hits, (std::vector<oid_t>{3}));
}

TEST(TTreeTest, BalancedOverRuns) {
  auto data = RandomData(10000, 2, UINT32_MAX);
  auto t = TTree::Build(data, TTreeOptions{8});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->node_count(), (10000 + 7) / 8);
  // Balanced binary tree over 1250 runs: height ~ ceil(log2(1250)) = 11.
  EXPECT_LE(t->height(), 12u);
  EXPECT_GE(t->height(), 10u);
}

TEST(TTreeTest, DuplicateSpillAcrossRuns) {
  DirectMemory mem;
  std::vector<Bun> data;
  for (uint32_t i = 0; i < 20; ++i) data.push_back({i, 5});
  for (uint32_t i = 0; i < 20; ++i) data.push_back({100 + i, 9});
  auto t = TTree::Build(data, TTreeOptions{4});
  ASSERT_TRUE(t.ok());
  std::vector<oid_t> hits;
  t->FindEq(5, mem, &hits);
  EXPECT_EQ(hits.size(), 20u);
  hits.clear();
  t->FindEq(9, mem, &hits);
  EXPECT_EQ(hits.size(), 20u);
  hits.clear();
  t->FindEq(7, mem, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(BinarySearchTest, LowerBound) {
  DirectMemory mem;
  std::vector<uint32_t> v = {2, 4, 4, 8, 16};
  std::span<const uint32_t> s(v);
  EXPECT_EQ(BinarySearchLowerBound(s, 0u, mem), 0u);
  EXPECT_EQ(BinarySearchLowerBound(s, 2u, mem), 0u);
  EXPECT_EQ(BinarySearchLowerBound(s, 3u, mem), 1u);
  EXPECT_EQ(BinarySearchLowerBound(s, 4u, mem), 1u);
  EXPECT_EQ(BinarySearchLowerBound(s, 17u, mem), 5u);
  std::vector<uint32_t> empty;
  EXPECT_EQ(BinarySearchLowerBound(std::span<const uint32_t>(empty), 1u, mem),
            0u);
}

// All structures agree with the scan reference over a randomized sweep of
// (cardinality, key range, node size).
class IndexEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t, size_t>> {};

TEST_P(IndexEquivalenceSweep, EqAndRangeMatchReference) {
  auto [n, range, node_bytes] = GetParam();
  auto data = RandomData(n, 31 + n + range, range);
  DirectMemory mem;
  auto bt = CacheConsciousBTree::Build(data, BTreeOptions{node_bytes});
  auto tt = TTree::Build(data, TTreeOptions{node_bytes / 4});
  ASSERT_TRUE(bt.ok() && tt.ok());
  Rng rng(99);
  for (int q = 0; q < 25; ++q) {
    uint32_t key = static_cast<uint32_t>(rng.NextBelow(range + range / 4 + 2));
    std::vector<oid_t> bt_hits, tt_hits;
    bt->FindEq(key, mem, &bt_hits);
    tt->FindEq(key, mem, &tt_hits);
    auto expect = ReferenceEq(data, key);
    EXPECT_EQ(Sorted(bt_hits), expect) << "btree eq key=" << key;
    EXPECT_EQ(Sorted(tt_hits), expect) << "ttree eq key=" << key;

    uint32_t lo = static_cast<uint32_t>(rng.NextBelow(range + 1));
    uint32_t hi = lo + static_cast<uint32_t>(rng.NextBelow(range / 4 + 1));
    std::vector<oid_t> bt_range, tt_range;
    bt->FindRange(lo, hi, mem, &bt_range);
    tt->FindRange(lo, hi, mem, &tt_range);
    auto expect_range = ReferenceRange(data, lo, hi);
    EXPECT_EQ(Sorted(bt_range), expect_range) << "btree range " << lo << ".." << hi;
    EXPECT_EQ(Sorted(tt_range), expect_range) << "ttree range " << lo << ".." << hi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexEquivalenceSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 100, 5000),
                       ::testing::Values<uint32_t>(4, 1000, 1000000),
                       ::testing::Values<size_t>(16, 64, 256)));

TEST(IndexMissCountTest, CacheLineNodesBeatBinarySearch) {
  // The [Ron98]/§3.2 claim, in miss counts on the Origin2000: point lookups
  // through a B-tree with (multi-)cache-line nodes touch fewer L2 lines
  // than binary search over the same sorted array.
  constexpr size_t kN = 1 << 20;
  auto data = RandomData(kN, 77, UINT32_MAX);
  auto bt = CacheConsciousBTree::Build(data, BTreeOptions{128});
  ASSERT_TRUE(bt.ok());
  std::vector<uint32_t> sorted_keys(bt->keys().begin(), bt->keys().end());

  MachineProfile profile = MachineProfile::Origin2000();
  Rng rng(5);
  std::vector<uint32_t> probes(2000);
  for (auto& p : probes) p = static_cast<uint32_t>(rng.NextU32());

  MemoryHierarchy h_bt(profile);
  SimulatedMemory mem_bt(&h_bt);
  for (uint32_t p : probes) bt->LowerBound(p, mem_bt);

  MemoryHierarchy h_bs(profile);
  SimulatedMemory mem_bs(&h_bs);
  for (uint32_t p : probes) {
    BinarySearchLowerBound(std::span<const uint32_t>(sorted_keys), p, mem_bs);
  }

  EXPECT_LT(h_bt.events().l2_misses, h_bs.events().l2_misses);
  EXPECT_LT(h_bt.events().l1_misses, h_bs.events().l1_misses);
}

}  // namespace
}  // namespace ccdb
