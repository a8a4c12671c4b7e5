// Sorting kernels, stride scans and grouping/aggregation (§3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algo/aggregate.h"
#include "algo/radix_sort.h"
#include "algo/stride_scan.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace ccdb {
namespace {

std::vector<Bun> RandomBuns(size_t n, uint64_t seed, uint32_t range = 0) {
  Rng rng(seed);
  std::vector<Bun> v(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t val =
        range == 0 ? rng.NextU32() : static_cast<uint32_t>(rng.NextBelow(range));
    v[i] = {static_cast<oid_t>(i), val};
  }
  return v;
}

bool SortedByTail(const std::vector<Bun>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1].tail > v[i].tail) return false;
  }
  return true;
}

TEST(RadixSortTest, SortsRandomData) {
  DirectMemory mem;
  auto v = RandomBuns(10000, 1);
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Bun& a, const Bun& b) { return a.tail < b.tail; });
  RadixSortByTail(std::span<Bun>(v), mem);
  EXPECT_EQ(v, expect);  // stability: exact equality including heads
}

TEST(RadixSortTest, EdgeCases) {
  DirectMemory mem;
  std::vector<Bun> empty;
  RadixSortByTail(std::span<Bun>(empty), mem);
  std::vector<Bun> one = {{3, 9}};
  RadixSortByTail(std::span<Bun>(one), mem);
  EXPECT_EQ(one[0], (Bun{3, 9}));
  std::vector<Bun> extremes = {{0, UINT32_MAX}, {1, 0}, {2, UINT32_MAX}, {3, 1}};
  RadixSortByTail(std::span<Bun>(extremes), mem);
  EXPECT_TRUE(SortedByTail(extremes));
  EXPECT_EQ(extremes[0].tail, 0u);
  EXPECT_EQ(extremes[3].tail, UINT32_MAX);
}

TEST(QuickSortTest, SortsAdversarialPatterns) {
  DirectMemory mem;
  // random, sorted, reverse, all-equal, sawtooth
  std::vector<std::vector<Bun>> cases;
  cases.push_back(RandomBuns(5000, 2));
  {
    std::vector<Bun> v(1000);
    for (uint32_t i = 0; i < 1000; ++i) v[i] = {i, i};
    cases.push_back(v);
    std::reverse(v.begin(), v.end());
    cases.push_back(v);
  }
  cases.push_back(std::vector<Bun>(777, Bun{1, 42}));
  {
    std::vector<Bun> v(1024);
    for (uint32_t i = 0; i < 1024; ++i) v[i] = {i, i % 7};
    cases.push_back(v);
  }
  for (auto& v : cases) {
    auto expect = v;
    std::sort(expect.begin(), expect.end(),
              [](const Bun& a, const Bun& b) { return a.tail < b.tail; });
    QuickSortByTail(std::span<Bun>(v), mem);
    ASSERT_EQ(v.size(), expect.size());
    EXPECT_TRUE(SortedByTail(v));
    // Same multiset of tails.
    std::vector<uint32_t> got, want;
    for (auto& b : v) got.push_back(b.tail);
    for (auto& b : expect) want.push_back(b.tail);
    EXPECT_EQ(got, want);
  }
}

TEST(QuickSortTest, TinyInputs) {
  DirectMemory mem;
  std::vector<Bun> empty;
  QuickSortByTail(std::span<Bun>(empty), mem);
  std::vector<Bun> two = {{0, 9}, {1, 3}};
  QuickSortByTail(std::span<Bun>(two), mem);
  EXPECT_EQ(two[0].tail, 3u);
}

std::map<uint32_t, std::pair<uint64_t, uint64_t>> ReferenceGroups(
    const std::vector<uint32_t>& keys, const std::vector<uint32_t>& vals) {
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> m;
  for (size_t i = 0; i < keys.size(); ++i) {
    m[keys[i]].first += vals[i];
    m[keys[i]].second += 1;
  }
  return m;
}

TEST(GroupAggTableTest, MatchesReference) {
  DirectMemory mem;
  Rng rng(5);
  std::vector<uint32_t> keys(5000), vals(5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(37));
    vals[i] = static_cast<uint32_t>(rng.NextBelow(1000));
  }
  GroupAggTable<DirectMemory> got(/*key_width=*/1, /*num_values=*/1);
  const uint32_t* key_col = keys.data();
  const uint32_t* val_col = vals.data();
  got.AddColumns({&key_col, 1}, {&val_col, 1}, 0, keys.size(), mem);
  auto expect = ReferenceGroups(keys, vals);
  ASSERT_EQ(got.num_groups(), expect.size());
  for (size_t g = 0; g < got.num_groups(); ++g) {
    auto it = expect.find(got.key(g, 0));
    ASSERT_NE(it, expect.end());
    EXPECT_EQ(got.state(g, 0).sum, it->second.first);
    EXPECT_EQ(got.group_rows(g), it->second.second);
  }
}

TEST(GroupAggTableTest, FirstAppearanceOrder) {
  DirectMemory mem;
  std::vector<uint32_t> keys = {9, 3, 9, 7, 3};
  std::vector<uint32_t> vals = {1, 1, 1, 1, 1};
  GroupAggTable<DirectMemory> got(/*key_width=*/1, /*num_values=*/1);
  for (size_t i = 0; i < keys.size(); ++i) got.Add(&keys[i], &vals[i], mem);
  ASSERT_EQ(got.num_groups(), 3u);
  const uint32_t order[] = {9, 3, 7};
  const uint64_t counts[] = {2, 2, 1};
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(got.key(g, 0), order[g]);
    EXPECT_EQ(got.group_rows(g), counts[g]);
  }
}

TEST(SortGroupSumTest, MatchesHashGrouping) {
  DirectMemory mem;
  Rng rng(6);
  std::vector<uint32_t> keys(3000), vals(3000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(100));
    vals[i] = static_cast<uint32_t>(rng.NextBelow(50));
  }
  auto sorted = SortGroupSum(std::span<const uint32_t>(keys),
                             std::span<const uint32_t>(vals), mem);
  auto expect = ReferenceGroups(keys, vals);
  ASSERT_EQ(sorted.size(), expect.size());
  // Sort-grouping emits keys in ascending order.
  EXPECT_TRUE(std::is_sorted(sorted.keys.begin(), sorted.keys.end()));
  for (size_t g = 0; g < sorted.size(); ++g) {
    EXPECT_EQ(sorted.sums[g], expect[sorted.keys[g]].first);
    EXPECT_EQ(sorted.counts[g], expect[sorted.keys[g]].second);
  }
}

TEST(GroupSumTest, EmptyInput) {
  DirectMemory mem;
  std::vector<uint32_t> none;
  GroupAggTable<DirectMemory> h(/*key_width=*/1, /*num_values=*/1);
  const uint32_t* col = none.data();
  h.AddColumns({&col, 1}, {&col, 1}, 0, 0, mem);
  EXPECT_EQ(h.num_groups(), 0u);
  auto s = SortGroupSum(std::span<const uint32_t>(none),
                        std::span<const uint32_t>(none), mem);
  EXPECT_EQ(s.size(), 0u);
}

TEST(StrideScanTest, SumsCorrectBytes) {
  DirectMemory mem;
  AlignedBuffer buf(1024);
  for (size_t i = 0; i < 1024; ++i) buf.data()[i] = static_cast<uint8_t>(i);
  // stride 4, 10 iterations: bytes 0,4,8,...,36.
  uint64_t expect = 0;
  for (int i = 0; i < 10; ++i) expect += static_cast<uint8_t>(i * 4);
  EXPECT_EQ(StrideScanSum(buf.data(), buf.size(), 4, 10, mem), expect);
}

TEST(StrideScanTest, StrideOneReadsPrefix) {
  DirectMemory mem;
  AlignedBuffer buf(64);
  for (size_t i = 0; i < 64; ++i) buf.data()[i] = 1;
  EXPECT_EQ(StrideScanSum(buf.data(), buf.size(), 1, 64, mem), 64u);
}

}  // namespace
}  // namespace ccdb
