// Cross-cutting robustness and stress tests: simulator determinism,
// associativity sweeps, high-cardinality encodings, full-pipeline oracles,
// and the aggregation-locality property behind bench/ablation_aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algo/join.h"
#include "algo/radix_aggregate.h"
#include "bat/dsm.h"
#include "exec/table.h"
#include "mem/access.h"
#include "model/planner.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace ccdb {
namespace {

TEST(SimulatorDeterminismTest, SameAddressStreamSameCounts) {
  // Two hierarchies fed the identical (synthetic) address stream must agree
  // exactly — randomized paging is a pure hash, not true randomness.
  MachineProfile profile = MachineProfile::Origin2000();
  MemoryHierarchy a(profile), b(profile);
  Rng rng(123);
  std::vector<uint64_t> addrs(50000);
  for (auto& x : addrs) x = rng.NextBelow(1u << 26);
  for (uint64_t x : addrs) {
    a.AccessLine(x);
    b.AccessLine(x);
  }
  EXPECT_EQ(a.events().l1_misses, b.events().l1_misses);
  EXPECT_EQ(a.events().l2_misses, b.events().l2_misses);
  EXPECT_EQ(a.events().tlb_misses, b.events().tlb_misses);
}

// LRU property across associativities: a working set that fits is free on
// the second pass; one line beyond capacity thrashes cyclic scans.
class AssocSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AssocSweep, FitVersusThrash) {
  size_t assoc = GetParam();
  CacheGeometry g{/*capacity_bytes=*/4096, /*line_bytes=*/64, assoc};
  CacheSim c(g);
  size_t lines = g.lines();  // 64
  // Fit: sequential working set == capacity, aligned: no conflict misses.
  for (int lap = 0; lap < 3; ++lap) {
    for (size_t i = 0; i < lines; ++i) c.Access(i * 64);
  }
  EXPECT_EQ(c.misses(), lines) << "assoc=" << assoc;
  // Thrash (fully associative only — set-assoc caches thrash per set):
  if (assoc == 0) {
    c.Flush();
    c.ResetCounters();
    for (int lap = 0; lap < 3; ++lap) {
      for (size_t i = 0; i <= lines; ++i) c.Access(i * 64);
    }
    EXPECT_EQ(c.misses(), 3 * (lines + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, AssocSweep,
                         ::testing::Values<size_t>(1, 2, 4, 8, 0));

TEST(EncodingFallbackTest, HighCardinalityStringsStayRaw) {
  // > 65536 distinct strings: Table::FromRowStore must fall back to raw
  // string storage, and queries must still work.
  constexpr size_t kRows = 70000;
  auto rs = RowStore::Make({{"name", FieldType::kChar10}}, kRows);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kRows; ++i) {
    size_t r = *rs->AppendRow();
    char buf[11];
    std::snprintf(buf, sizeof(buf), "n%zu", i);
    rs->SetBytes(r, 0, buf, strlen(buf));
  }
  auto table = Table::FromRowStore(*rs);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->is_encoded(0));
  auto plan = QueryBuilder(*table).Filter(Col("name") == "n69999").Build();
  ASSERT_TRUE(plan.ok());
  auto sel = Execute(*plan);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->columns[0].str_values, (std::vector<std::string>{"n69999"}));
}

TEST(DsmRoundTripTest, AllFieldTypes) {
  auto rs = RowStore::Make(
      {
          {"a", FieldType::kU8},
          {"b", FieldType::kU16},
          {"c", FieldType::kU32},
          {"d", FieldType::kI64},
          {"e", FieldType::kF64},
          {"f", FieldType::kChar1},
          {"g", FieldType::kChar10},
          {"h", FieldType::kChar27},
      },
      64);
  ASSERT_TRUE(rs.ok());
  Rng rng(6);
  for (size_t i = 0; i < 64; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU8(r, 0, static_cast<uint8_t>(rng.NextU32()));
    uint16_t u16 = static_cast<uint16_t>(rng.NextU32());
    rs->SetBytes(r, 1, &u16, sizeof(u16));
    rs->SetU32(r, 2, rng.NextU32());
    int64_t i64 = static_cast<int64_t>(rng.NextU64());
    rs->SetBytes(r, 3, &i64, sizeof(i64));
    rs->SetF64(r, 4, rng.NextDouble() * 1e6 - 5e5);
    rs->SetU8(r, 5, 'A' + static_cast<uint8_t>(rng.NextBelow(26)));
    char buf[28];
    std::snprintf(buf, sizeof(buf), "s%llu",
                  static_cast<unsigned long long>(rng.NextBelow(100000)));
    rs->SetBytes(r, 6, buf, std::min<size_t>(strlen(buf), 10));
    rs->SetBytes(r, 7, buf, strlen(buf));
  }
  auto dsm = DecomposedTable::Decompose(*rs);
  ASSERT_TRUE(dsm.ok());
  auto back = dsm->Reconstruct();
  ASSERT_TRUE(back.ok());
  for (size_t r = 0; r < rs->size(); ++r) {
    EXPECT_EQ(
        std::memcmp(back->RowPtr(r), rs->RowPtr(r), rs->record_width()), 0)
        << "row " << r;
  }
}

TEST(PipelineOracleTest, SelectJoinAggregateEndToEnd) {
  // Orders(order_id, prio) x Items(order, qty): filter, join, group — the
  // exec layer against a hand-rolled row-at-a-time oracle.
  constexpr size_t kOrders = 2000, kItems = 10000;
  Rng rng(9);
  auto orders_rs = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"prio", FieldType::kU32}}, kOrders);
  ASSERT_TRUE(orders_rs.ok());
  std::vector<uint32_t> prio(kOrders);
  for (size_t i = 0; i < kOrders; ++i) {
    size_t r = *orders_rs->AppendRow();
    orders_rs->SetU32(r, 0, static_cast<uint32_t>(i));
    prio[i] = static_cast<uint32_t>(rng.NextBelow(5));
    orders_rs->SetU32(r, 1, prio[i]);
  }
  auto items_rs = RowStore::Make(
      {{"order", FieldType::kU32}, {"qty", FieldType::kU32}}, kItems);
  ASSERT_TRUE(items_rs.ok());
  std::vector<uint32_t> item_order(kItems), item_qty(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    size_t r = *items_rs->AppendRow();
    item_order[i] = static_cast<uint32_t>(rng.NextBelow(kOrders));
    item_qty[i] = static_cast<uint32_t>(1 + rng.NextBelow(9));
    items_rs->SetU32(r, 0, item_order[i]);
    items_rs->SetU32(r, 1, item_qty[i]);
  }
  Table orders = *Table::FromRowStore(*orders_rs);
  Table items = *Table::FromRowStore(*items_rs);

  // Query: total qty of items whose order has prio == 3.
  auto plan = QueryBuilder(items)
                  .Join(orders, "order", "order_id", JoinStrategy::kPhashL1)
                  .Filter(Col("prio") == 3u)
                  .Project({"qty"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto hot = Execute(*plan);
  ASSERT_TRUE(hot.ok());
  uint64_t got = 0;
  for (uint32_t q : hot->columns[0].u32_values) got += q;
  uint64_t expect = 0;
  for (size_t i = 0; i < kItems; ++i) {
    if (prio[item_order[i]] == 3) expect += item_qty[i];
  }
  EXPECT_EQ(got, expect);
  EXPECT_GT(expect, 0u);
}

TEST(AggregationLocalityTest, RadixGroupingCutsMissesAtHighGroupCounts) {
  // The property behind bench/ablation_aggregation, asserted on simulated
  // counts. The generic x86 profile (1 MB L2, 4 KB pages) is the right
  // stage: a 64k-group table (~1.5 MB) outgrows both the L2 and the 256 KB
  // TLB span, so plain hash grouping takes a random miss per tuple while
  // the partitioned variant's per-cluster tables stay resident.
  constexpr size_t kN = 1 << 18;
  constexpr uint32_t kGroups = 1 << 16;
  Rng rng(44);
  std::vector<uint32_t> keys(kN), vals(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(kGroups) * 2654435761u);
    vals[i] = static_cast<uint32_t>(rng.NextBelow(100));
  }
  MachineProfile profile = MachineProfile::GenericX86();

  MemoryHierarchy h_plain(profile);
  SimulatedMemory sim_plain(&h_plain);
  GroupAggTable<SimulatedMemory> plain(/*key_width=*/1, /*num_values=*/1,
                                       kGroups);
  const uint32_t* key_col = keys.data();
  const uint32_t* val_col = vals.data();
  plain.AddColumns({&key_col, 1}, {&val_col, 1}, 0, kN, sim_plain);

  MemoryHierarchy h_radix(profile);
  SimulatedMemory sim_radix(&h_radix);
  auto radix = RadixGroupSum(std::span<const uint32_t>(keys),
                             std::span<const uint32_t>(vals), /*bits=*/5,
                             /*passes=*/1, sim_radix);
  ASSERT_TRUE(radix.ok());
  ASSERT_EQ(radix->size(), plain.num_groups());

  EXPECT_LT(h_radix.events().tlb_misses, h_plain.events().tlb_misses);
  EXPECT_LT(h_radix.events().l2_misses + h_radix.events().tlb_misses,
            h_plain.events().l2_misses + h_plain.events().tlb_misses);
}

TEST(LargeClusterStressTest, SixteenBitsThreePasses) {
  DirectMemory mem;
  constexpr size_t kN = 200000;
  Rng rng(77);
  std::vector<Bun> rel(kN);
  for (size_t i = 0; i < kN; ++i) {
    rel[i] = {static_cast<oid_t>(i), rng.NextU32()};
  }
  auto out = RadixCluster(std::span<const Bun>(rel),
                          RadixClusterOptions{16, 3, {}}, mem);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->tuples.size(), kN);
  uint32_t mask = LowMask32(16);
  for (size_t i = 1; i < kN; ++i) {
    ASSERT_LE(out->tuples[i - 1].tail & mask, out->tuples[i].tail & mask);
  }
  // Join the 16-bit clustered relation against itself: perfect self-match.
  JoinBuild<DirectMemory> build;
  ASSERT_TRUE(build
                  .Prepare(*out,
                           {.kernel = JoinKernel::kHash, .bits = 16,
                            .passes = 3},
                           mem)
                  .ok());
  std::vector<Bun> idx;
  build.RunAll(out->tuples, out->bounds, mem, idx);
  EXPECT_GE(idx.size(), kN);  // >= because random values may collide
}

TEST(ZipfJoinStressTest, SkewedProbeAgainstUniqueBuild) {
  // Zipf FK probe against a distinct build side: every probe matches
  // exactly once even with a hot key.
  constexpr size_t kProbe = 30000, kBuild = 1000;
  ZipfGenerator zg(kBuild, 0.99, 3);
  std::vector<Bun> probe(kProbe), build(kBuild);
  for (size_t i = 0; i < kProbe; ++i) {
    probe[i] = {static_cast<oid_t>(i),
                static_cast<uint32_t>(zg.Next() * 2654435761u)};
  }
  for (size_t r = 0; r < kBuild; ++r) {
    build[r] = {static_cast<oid_t>(1u << 20 | r),
                static_cast<uint32_t>(r * 2654435761u)};
  }
  DirectMemory mem;
  auto out = JoinRelations(std::span<const Bun>(probe),
                           std::span<const Bun>(build),
                           {.kernel = JoinKernel::kHash, .bits = 6,
                            .passes = 1},
                           mem);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), kProbe);
}

}  // namespace
}  // namespace ccdb
