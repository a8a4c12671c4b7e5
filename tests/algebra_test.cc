// BAT algebra (Monet operator style) and radix-partitioned aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "algo/bat_algebra.h"
#include "algo/radix_aggregate.h"
#include "util/rng.h"

namespace ccdb {
namespace {

Bat SampleBat() {
  // [void 0..5, {30, 10, 20, 10, 40, 25}]
  return Bat::DenseTail(Column::U32({30, 10, 20, 10, 40, 25}));
}

TEST(BatAlgebraTest, SelectFiltersByTailRange) {
  auto out = BatSelect(SampleBat(), 10, 25);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  auto heads = out->head().Span<uint32_t>();
  auto tails = out->tail().Span<uint32_t>();
  EXPECT_EQ(std::vector<uint32_t>(heads.begin(), heads.end()),
            (std::vector<uint32_t>{1, 2, 3, 5}));
  EXPECT_EQ(std::vector<uint32_t>(tails.begin(), tails.end()),
            (std::vector<uint32_t>{10, 20, 10, 25}));
}

TEST(BatAlgebraTest, SelectEmptyResultAndBadType) {
  auto none = BatSelect(SampleBat(), 1000, 2000);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->size(), 0u);
  Bat f = Bat::DenseTail(Column::F64({1.0}));
  EXPECT_EQ(BatSelect(f, 0, 1).status().code(), StatusCode::kInvalidArgument);
}

TEST(BatAlgebraTest, MirrorAndMark) {
  auto m = BatMirror(SampleBat());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->head().GetOid(3), 3u);
  EXPECT_EQ(m->tail().GetIntegral(3), 3u);

  auto marked = BatMark(SampleBat(), 1000);
  ASSERT_TRUE(marked.ok());
  EXPECT_TRUE(marked->tail().is_void());
  EXPECT_EQ(marked->tail().GetIntegral(2), 1002u);
}

TEST(BatAlgebraTest, ReverseSwaps) {
  Bat r = BatReverse(SampleBat());
  EXPECT_TRUE(r.tail().is_void());
  EXPECT_EQ(r.head().GetIntegral(0), 30u);
}

TEST(BatAlgebraTest, JoinPositionalPath) {
  // l.tail references positions 100..105 of a void-headed r.
  auto l = *Bat::Make(Column::U32({7, 8, 9}), Column::U32({100, 104, 99}));
  Bat r = *Bat::Make(Column::Void(100, 6),
                     Column::U32({11, 22, 33, 44, 55, 66}));
  auto out = BatJoin(l, r);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // 99 misses the void range
  EXPECT_EQ(out->head().GetIntegral(0), 7u);
  EXPECT_EQ(out->tail().GetIntegral(0), 11u);
  EXPECT_EQ(out->head().GetIntegral(1), 8u);
  EXPECT_EQ(out->tail().GetIntegral(1), 55u);
}

TEST(BatAlgebraTest, JoinHashPath) {
  auto l = *Bat::Make(Column::U32({1, 2}), Column::U32({500, 600}));
  auto r = *Bat::Make(Column::U32({600, 500, 700}),
                      Column::U32({66, 55, 77}));
  auto out = BatJoin(l, r);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  std::map<uint32_t, uint32_t> pairs;
  for (size_t i = 0; i < out->size(); ++i) {
    pairs[static_cast<uint32_t>(out->head().GetIntegral(i))] =
        static_cast<uint32_t>(out->tail().GetIntegral(i));
  }
  EXPECT_EQ(pairs[1], 55u);
  EXPECT_EQ(pairs[2], 66u);
}

TEST(BatAlgebraTest, JoinPathsAgree) {
  // The same logical join through the positional and the hash path.
  Rng rng(3);
  std::vector<uint32_t> refs(500), vals(200);
  for (auto& x : refs) x = static_cast<uint32_t>(rng.NextBelow(250));
  for (size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<uint32_t>(rng.NextU32());
  auto l = *Bat::Make(Column::Void(0, refs.size()), Column::U32(refs));
  Bat r_void = *Bat::Make(Column::Void(0, vals.size()), Column::U32(vals));
  // Materialized-head version of r.
  Bat r_hash = *Bat::Make(r_void.head().Materialize(), r_void.tail());

  auto a = BatJoin(l, r_void);
  auto b = BatJoin(l, r_hash);
  ASSERT_TRUE(a.ok() && b.ok());
  auto canon = [](const Bat& bat) {
    std::vector<std::pair<uint32_t, uint32_t>> v;
    for (size_t i = 0; i < bat.size(); ++i) {
      v.emplace_back(bat.head().GetIntegral(i), bat.tail().GetIntegral(i));
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(*a), canon(*b));
  EXPECT_GT(a->size(), 0u);
}

// [l.head, position]: BatJoin against a void-headed r whose tail is its
// own position.
std::vector<Bun> JoinPositions(const std::vector<Bun>& refs, oid_t base,
                               size_t count) {
  auto l = Bat::FromBuns(refs);
  std::vector<uint32_t> positions(count);
  for (size_t i = 0; i < count; ++i) positions[i] = static_cast<uint32_t>(i);
  auto out = BatJoin(l, *Bat::Make(Column::Void(base, count),
                                   Column::U32(std::move(positions))));
  CCDB_CHECK(out.ok());
  return *out->ToBuns();
}

TEST(BatAlgebraTest, JoinPositionalDenseForeignKey) {
  // References into a base table of 100 tuples with OIDs 1000..1099.
  std::vector<Bun> refs = {{0, 1000}, {1, 1050}, {2, 1099}, {3, 999},
                           {4, 1100}, {5, 1007}};
  auto out = JoinPositions(refs, 1000, 100);
  ASSERT_EQ(out.size(), 4u);  // 999 and 1100 fall outside
  EXPECT_EQ(out[0], (Bun{0, 0}));
  EXPECT_EQ(out[1], (Bun{1, 50}));
  EXPECT_EQ(out[2], (Bun{2, 99}));
  EXPECT_EQ(out[3], (Bun{5, 7}));
}

TEST(BatAlgebraTest, JoinPositionalEmptyAndNoMatches) {
  EXPECT_TRUE(JoinPositions({}, 0, 10).empty());
  EXPECT_TRUE(JoinPositions({{0, 5}}, 100, 10).empty());
}

TEST(BatAlgebraTest, JoinPositionalMatchesJoinOnMaterializedHead) {
  // §3.1: the positional join must produce the same join index as a join
  // against the materialized void column, row for row.
  constexpr size_t kBase = 5000, kN = 3000;
  Rng rng(8);
  std::vector<Bun> refs(kN);
  for (size_t i = 0; i < kN; ++i) {
    refs[i] = {static_cast<oid_t>(i),
               static_cast<uint32_t>(kBase + rng.NextBelow(2000))};
  }
  auto positional = JoinPositions(refs, kBase, 2000);
  // Reference: the void column materialized as [position, oid] tuples.
  std::vector<Bun> void_rel(2000);
  for (uint32_t i = 0; i < 2000; ++i)
    void_rel[i] = {i, static_cast<uint32_t>(kBase + i)};
  std::vector<Bun> expect;
  for (const Bun& r : refs) {
    for (const Bun& v : void_rel) {
      if (r.tail == v.tail) expect.push_back({r.head, v.head});
    }
  }
  EXPECT_EQ(positional, expect);
  // The hash path over the materialized head [oid, position].
  std::vector<Bun> by_oid(2000);
  for (const Bun& v : void_rel) by_oid[v.head] = {v.tail, v.head};
  auto hashed = BatJoin(Bat::FromBuns(refs), Bat::FromBuns(by_oid));
  ASSERT_TRUE(hashed.ok());
  EXPECT_EQ(*hashed->ToBuns(), expect);
}

TEST(BatAlgebraTest, Semijoin) {
  auto l = *Bat::Make(Column::U32({1, 2, 3, 4}), Column::U32({10, 20, 30, 40}));
  auto r = *Bat::Make(Column::U32({2, 4, 9}), Column::U32({0, 0, 0}));
  auto out = BatSemijoin(l, r);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->head().GetIntegral(0), 2u);
  EXPECT_EQ(out->tail().GetIntegral(1), 40u);
}

TEST(BatAlgebraTest, UniqueKeepsFirstOccurrence) {
  auto b = Bat::DenseTail(Column::U32({5, 7, 5, 9, 7, 5}));
  auto out = BatUnique(b);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ(out->head().GetIntegral(0), 0u);  // first 5 at position 0
  EXPECT_EQ(out->head().GetIntegral(1), 1u);  // first 7
  EXPECT_EQ(out->head().GetIntegral(2), 3u);  // first 9
}

TEST(BatAlgebraTest, CountAndSum) {
  Bat b = SampleBat();
  EXPECT_EQ(BatCount(b), 6u);
  auto sum = BatSum(b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 135u);
  EXPECT_FALSE(BatSum(Bat::DenseTail(Column::F64({1.0}))).ok());
}

TEST(BatAlgebraTest, ComposedPipeline) {
  // Monet-style: select, renumber with mark, positional-join back.
  Bat base = Bat::DenseTail(Column::U32({30, 10, 20, 10, 40, 25}));
  auto selected = BatSelect(base, 10, 25);          // candidates
  ASSERT_TRUE(selected.ok());
  auto joined = BatJoin(*Bat::Make(selected->head().Materialize(),
                                   selected->head()),
                        base);                      // fetch values by OID
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->size(), selected->size());
  for (size_t i = 0; i < joined->size(); ++i) {
    EXPECT_EQ(joined->tail().GetIntegral(i), selected->tail().GetIntegral(i));
  }
}

TEST(BatAlgebraTest, SliceClamps) {
  Bat b = SampleBat();
  auto mid = BatSlice(b, 2, 3);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->size(), 3u);
  EXPECT_EQ(mid->head().GetIntegral(0), 2u);
  EXPECT_EQ(mid->tail().GetIntegral(2), 40u);
  auto past = BatSlice(b, 5, 100);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past->size(), 1u);
  auto none = BatSlice(b, 99, 5);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->size(), 0u);
}

TEST(BatAlgebraTest, SliceCountSaturates) {
  // first + count overflows size_t: the end saturates at the BAT's size.
  Bat b = SampleBat();
  auto rest = BatSlice(b, 2, SIZE_MAX);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 4u);  // rows 2..5
  for (size_t i = 0; i < rest->size(); ++i) {
    EXPECT_EQ(rest->head().GetIntegral(i), b.head().GetIntegral(i + 2));
    EXPECT_EQ(rest->tail().GetIntegral(i), b.tail().GetIntegral(i + 2));
  }
  auto none = BatSlice(b, SIZE_MAX, SIZE_MAX);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->size(), 0u);
}

TEST(BatAlgebraTest, SortByTailIsStable) {
  auto b = *Bat::Make(Column::U32({0, 1, 2, 3}), Column::U32({7, 3, 7, 3}));
  auto sorted = BatSortByTail(b);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->tail().GetIntegral(0), 3u);
  EXPECT_EQ(sorted->head().GetIntegral(0), 1u);  // first 3 keeps order
  EXPECT_EQ(sorted->head().GetIntegral(1), 3u);
  EXPECT_EQ(sorted->head().GetIntegral(2), 0u);  // first 7
  EXPECT_EQ(sorted->head().GetIntegral(3), 2u);
}

TEST(BatAlgebraTest, HistogramCountsValues) {
  Bat b = Bat::DenseTail(Column::U32({5, 7, 5, 9, 7, 5}));
  auto h = BatHistogram(b);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->size(), 3u);
  EXPECT_EQ(h->head().GetIntegral(0), 5u);
  EXPECT_EQ(h->tail().GetIntegral(0), 3u);
  EXPECT_EQ(h->head().GetIntegral(1), 7u);
  EXPECT_EQ(h->tail().GetIntegral(1), 2u);
  EXPECT_EQ(h->head().GetIntegral(2), 9u);
  EXPECT_EQ(h->tail().GetIntegral(2), 1u);
}

TEST(BatAlgebraTest, AppendConcatenates) {
  Bat a = Bat::DenseTail(Column::U32({1, 2}));
  auto b = *Bat::Make(Column::U32({7, 8}), Column::U32({3, 4}));
  auto out = BatAppend(a, b);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  EXPECT_EQ(out->head().GetIntegral(0), 0u);
  EXPECT_EQ(out->head().GetIntegral(2), 7u);
  EXPECT_EQ(out->tail().GetIntegral(3), 4u);
}

// RadixGroupSum == a map reference across a parameter sweep.
class RadixGroupSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t, int, int>> {
};

TEST_P(RadixGroupSweep, MatchesMapReference) {
  auto [n, groups, bits, passes] = GetParam();
  if (passes > std::max(bits, 1)) GTEST_SKIP();
  Rng rng(500 + n + groups + bits);
  std::vector<uint32_t> keys(n), vals(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(groups) * 2654435761u);
    vals[i] = static_cast<uint32_t>(rng.NextBelow(100));
  }
  DirectMemory mem;
  auto radix = RadixGroupSum(std::span<const uint32_t>(keys),
                             std::span<const uint32_t>(vals), bits, passes,
                             mem);
  ASSERT_TRUE(radix.ok());
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> expect;
  for (size_t i = 0; i < n; ++i) {
    expect[keys[i]].first += vals[i];
    expect[keys[i]].second += 1;
  }
  ASSERT_EQ(radix->size(), expect.size());
  for (size_t g = 0; g < radix->size(); ++g) {
    auto it = expect.find(radix->keys[g]);
    ASSERT_NE(it, expect.end()) << radix->keys[g];
    EXPECT_EQ(radix->sums[g], it->second.first);
    EXPECT_EQ(radix->counts[g], it->second.second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RadixGroupSweep,
    ::testing::Combine(::testing::Values<size_t>(0, 1000, 20000),
                       ::testing::Values<uint32_t>(1, 37, 5000),
                       ::testing::Values(0, 3, 8),
                       ::testing::Values(1, 2)));

// Row-at-a-time reference for RadixGroupSum's output order: clusters in
// ascending order of the low `bits` of MurmurHash::Hash(key), and within a
// cluster the groups in first-appearance order.
GroupAggregates ClusterOrderReference(const std::vector<uint32_t>& keys,
                                      const std::vector<uint32_t>& vals,
                                      int bits) {
  std::vector<std::vector<size_t>> rows(size_t{1} << bits);
  for (size_t i = 0; i < keys.size(); ++i) {
    rows[MurmurHash::Hash(keys[i]) & LowMask32(bits)].push_back(i);
  }
  GroupAggregates out;
  for (const std::vector<size_t>& cluster : rows) {
    std::map<uint32_t, size_t> group;
    for (size_t i : cluster) {
      auto [it, fresh] = group.try_emplace(keys[i], out.size());
      if (fresh) {
        out.keys.push_back(keys[i]);
        out.sums.push_back(0);
        out.counts.push_back(0);
      }
      out.sums[it->second] += vals[i];
      out.counts[it->second] += 1;
    }
  }
  return out;
}

TEST(RadixGroupSumTest, PerClusterFirstAppearanceOrder) {
  for (uint32_t groups : {1u, 37u, 5000u}) {
    Rng rng(900 + groups);
    std::vector<uint32_t> keys(20000), vals(20000);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<uint32_t>(rng.NextBelow(groups) * 2654435761u);
      vals[i] = static_cast<uint32_t>(rng.NextBelow(100));
    }
    for (int bits : {0, 3, 8}) {
      GroupAggregates expect = ClusterOrderReference(keys, vals, bits);
      for (int passes : {1, 2}) {
        if (passes > std::max(bits, 1)) continue;
        SCOPED_TRACE(testing::Message() << "groups=" << groups
                                        << " bits=" << bits
                                        << " passes=" << passes);
        DirectMemory mem;
        auto got = RadixGroupSum<DirectMemory>(
            std::span<const uint32_t>(keys), std::span<const uint32_t>(vals),
            bits, passes, mem);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->keys, expect.keys);
        EXPECT_EQ(got->sums, expect.sums);
        EXPECT_EQ(got->counts, expect.counts);
      }
    }
  }
}

TEST(RadixGroupSumTest, AllSameKey) {
  DirectMemory mem;
  std::vector<uint32_t> keys(100, 7u), vals(100, 2u);
  auto out = RadixGroupSum(std::span<const uint32_t>(keys),
                           std::span<const uint32_t>(vals), 4, 2, mem);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->sums[0], 200u);
  EXPECT_EQ(out->counts[0], 100u);
}

TEST(RadixGroupSumTest, InvalidOptionsPropagate) {
  DirectMemory mem;
  std::vector<uint32_t> keys = {1}, vals = {1};
  EXPECT_FALSE(RadixGroupSum(std::span<const uint32_t>(keys),
                             std::span<const uint32_t>(vals), 40, 1, mem)
                   .ok());
  // 25 bits passes cluster validation but exceeds the grouping guard.
  EXPECT_EQ(RadixGroupSum(std::span<const uint32_t>(keys),
                          std::span<const uint32_t>(vals), 25, 5, mem)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccdb
