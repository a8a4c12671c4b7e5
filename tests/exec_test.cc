// Exec-layer integration: the Fig. 4 Item table decomposed + byte-encoded,
// selections with predicate remap, group-by, gathers, and table-level joins
// against a row-store oracle.
#include <gtest/gtest.h>

#include <map>

#include "exec/ops.h"
#include "exec/table.h"
#include "util/rng.h"

namespace ccdb {
namespace {

RowStore MakeItems(size_t n) {
  auto rs = RowStore::Make(
      {
          {"order", FieldType::kU32},
          {"qty", FieldType::kU32},
          {"price", FieldType::kF64},
          {"shipmode", FieldType::kChar10},
      },
      n);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i / 3));
    rs->SetU32(r, 1, static_cast<uint32_t>(1 + i % 5));
    rs->SetF64(r, 2, 10.0 + static_cast<double>(i));
    const char* m = modes[i % 4];
    rs->SetBytes(r, 3, m, strlen(m));
  }
  return *std::move(rs);
}

TEST(TableTest, AutoEncodesLowCardinalityStrings) {
  Table t = *Table::FromRowStore(MakeItems(100));
  auto idx = t.schema().FieldIndex("shipmode");
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(t.is_encoded(*idx));
  // 4 distinct values: one byte per tuple (§3.1, Fig. 4's "1 byte per
  // column").
  EXPECT_EQ(t.column_value_bytes(*idx), 1u);
  EXPECT_EQ(t.dict(*idx).size(), 4u);
}

TEST(TableTest, EncodingCanBeDisabled) {
  Table t = *Table::FromRowStore(MakeItems(10), /*auto_encode=*/false);
  auto idx = t.schema().FieldIndex("shipmode");
  EXPECT_FALSE(t.is_encoded(*idx));
  // Unencoded path still answers the same query.
  auto sel = t.SelectEqStr("shipmode", "AIR");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (std::vector<oid_t>{1, 5, 9}));
}

TEST(TableTest, SelectEqStrRemapsPredicate) {
  Table t = *Table::FromRowStore(MakeItems(40));
  auto sel = t.SelectEqStr("shipmode", "MAIL");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 10u);
  for (oid_t o : *sel) EXPECT_EQ(o % 4, 0u);
  // Unknown value: empty, not an error.
  auto none = t.SelectEqStr("shipmode", "PIGEON");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // Wrong column name -> NotFound.
  EXPECT_EQ(t.SelectEqStr("nope", "MAIL").status().code(),
            StatusCode::kNotFound);
  // Non-string column -> InvalidArgument.
  EXPECT_EQ(t.SelectEqStr("qty", "MAIL").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, RangeSelects) {
  Table t = *Table::FromRowStore(MakeItems(20));
  auto qty = t.SelectRangeU32("qty", 4, 5);
  ASSERT_TRUE(qty.ok());
  for (oid_t o : *qty) EXPECT_GE(1 + o % 5, 4u);
  auto price = t.SelectRangeF64("price", 12.0, 14.0);
  ASSERT_TRUE(price.ok());
  EXPECT_EQ(*price, (std::vector<oid_t>{2, 3, 4}));
  EXPECT_EQ(t.SelectRangeU32("price", 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, GroupSumOverEncodedColumn) {
  Table t = *Table::FromRowStore(MakeItems(40));
  auto agg = t.GroupSumU32("shipmode", "qty");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 4u);
  // Oracle.
  std::map<std::string, uint64_t> expect;
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < 40; ++i) expect[modes[i % 4]] += 1 + i % 5;
  for (size_t g = 0; g < agg->size(); ++g) {
    auto name = t.DecodeGroupKey("shipmode", agg->keys[g]);
    ASSERT_TRUE(name.ok());
    EXPECT_EQ(agg->sums[g], expect[*name]) << *name;
    EXPECT_EQ(agg->counts[g], 10u);
  }
}

TEST(TableTest, Gathers) {
  Table t = *Table::FromRowStore(MakeItems(10));
  std::vector<oid_t> oids = {1, 3, 9};
  auto modes = t.GatherStr("shipmode", oids);
  ASSERT_TRUE(modes.ok());
  EXPECT_EQ(*modes, (std::vector<std::string>{"AIR", "SHIP", "AIR"}));
  auto prices = t.GatherF64("price", oids);
  ASSERT_TRUE(prices.ok());
  EXPECT_DOUBLE_EQ((*prices)[1], 13.0);
  auto qty = t.GatherU32("qty", oids);
  ASSERT_TRUE(qty.ok());
  EXPECT_EQ((*qty)[0], 2u);
  // Out-of-range OID caught.
  std::vector<oid_t> bad = {99};
  EXPECT_EQ(t.GatherStr("shipmode", bad).status().code(),
            StatusCode::kOutOfRange);
}

TEST(TableTest, MemoryFootprintBeatsNsm) {
  RowStore rows = MakeItems(1000);
  Table t = *Table::FromRowStore(rows);
  size_t nsm_bytes = rows.record_width() * rows.size();
  // DSM + encodings: 4 (order) + 4 (qty) + 8 (price) + 1 (shipmode code)
  // = 17 bytes/tuple vs 26 NSM bytes.
  EXPECT_LT(t.MemoryBytes(), nsm_bytes);
}

TEST(ColumnBunsTest, ExtractsOidValuePairs) {
  Table t = *Table::FromRowStore(MakeItems(6));
  auto buns = ColumnBuns(t, "order");
  ASSERT_TRUE(buns.ok());
  ASSERT_EQ(buns->size(), 6u);
  EXPECT_EQ((*buns)[0], (Bun{0, 0}));
  EXPECT_EQ((*buns)[5], (Bun{5, 1}));
  EXPECT_EQ(ColumnBuns(t, "price").status().code(),
            StatusCode::kInvalidArgument);  // f64 tail not BUN-able
}

TEST(ExecuteJoinTest, AllStrategiesProduceSameResult) {
  Rng rng(3);
  constexpr size_t kN = 2000;
  std::vector<Bun> l(kN), r(kN);
  for (size_t i = 0; i < kN; ++i) {
    l[i] = {static_cast<oid_t>(i), static_cast<uint32_t>(rng.NextBelow(500))};
    r[i] = {static_cast<oid_t>(i + 10000),
            static_cast<uint32_t>(rng.NextBelow(500))};
  }
  MachineProfile m = MachineProfile::Origin2000();
  auto canon = [](std::vector<Bun> v) {
    std::sort(v.begin(), v.end(), [](const Bun& a, const Bun& b) {
      return a.head != b.head ? a.head < b.head : a.tail < b.tail;
    });
    return v;
  };
  JoinPlan ref_plan = PlanJoin(JoinStrategy::kSimpleHash, kN, m);
  auto ref = ExecuteJoin(l, r, ref_plan);
  ASSERT_TRUE(ref.ok());
  auto expect = canon(*ref);
  for (JoinStrategy s : {JoinStrategy::kSortMerge, JoinStrategy::kPhashL2,
                         JoinStrategy::kPhashTLB, JoinStrategy::kPhashL1,
                         JoinStrategy::kPhash256, JoinStrategy::kPhashMin,
                         JoinStrategy::kRadix8, JoinStrategy::kRadixMin,
                         JoinStrategy::kBest}) {
    JoinPlan plan = PlanJoin(s, kN, m);
    JoinStats stats;
    auto got = ExecuteJoin(l, r, plan, &stats);
    ASSERT_TRUE(got.ok()) << JoinStrategyName(s);
    EXPECT_EQ(canon(*got), expect) << JoinStrategyName(s);
    EXPECT_EQ(stats.result_count, got->size());
  }
}

TEST(JoinTablesTest, MatchesExecuteJoinRowForRow) {
  // JoinOp (one probe chunk) and the whole algo/ kernel must emit the same
  // [left OID, right OID] sequence, unsorted: same cluster-pair order, same
  // probe order within a pair, and duplicate keys in reverse build order.
  constexpr size_t kN = 100000;  // every radix/phash plan gets bits > 0
  Rng rng(5);
  auto make = [&](size_t n) {
    auto rs = RowStore::Make({{"k", FieldType::kU32}}, n);
    CCDB_CHECK(rs.ok());
    for (size_t i = 0; i < n; ++i) {
      rs->SetU32(*rs->AppendRow(), 0,
                 static_cast<uint32_t>(rng.NextBelow(kN / 4)));
    }
    return *Table::FromRowStore(*rs);
  };
  Table left = make(kN / 2);
  Table right = make(kN);  // ~4 rows per key on the inner, ~2 on the probe
  std::vector<Bun> l = *ColumnBuns(left, "k");
  std::vector<Bun> r = *ColumnBuns(right, "k");
  MachineProfile m = MachineProfile::GenericX86();
  for (JoinStrategy s : {JoinStrategy::kSortMerge, JoinStrategy::kSimpleHash,
                         JoinStrategy::kPhashL2, JoinStrategy::kPhashTLB,
                         JoinStrategy::kPhashL1, JoinStrategy::kPhash256,
                         JoinStrategy::kPhashMin, JoinStrategy::kRadix8,
                         JoinStrategy::kRadixMin, JoinStrategy::kBest}) {
    JoinPlan plan = PlanJoin(s, kN, m);
    if (s != JoinStrategy::kSortMerge && s != JoinStrategy::kSimpleHash) {
      EXPECT_GT(plan.bits, 0) << JoinStrategyName(s);
    }
    auto kernel = ExecuteJoin(l, r, plan);
    auto engine = JoinTables(left, "k", right, "k", s, m);
    ASSERT_TRUE(kernel.ok() && engine.ok()) << JoinStrategyName(s);
    EXPECT_GT(kernel->size(), kN) << JoinStrategyName(s);
    EXPECT_EQ(*engine, *kernel) << JoinStrategyName(s);
  }
}

TEST(MaterializeJoinTest, ProjectsBothSides) {
  auto orders_rows = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"clerk", FieldType::kChar10}}, 4);
  ASSERT_TRUE(orders_rows.ok());
  const char* clerks[] = {"ann", "bob", "cho", "dee"};
  for (uint32_t i = 0; i < 4; ++i) {
    size_t r = *orders_rows->AppendRow();
    orders_rows->SetU32(r, 0, 100 + i);
    orders_rows->SetBytes(r, 1, clerks[i], strlen(clerks[i]));
  }
  Table orders = *Table::FromRowStore(*orders_rows);
  Table items = *Table::FromRowStore(MakeItems(8));

  // Join index: item oid i <-> order oid i % 4 (hand-built).
  std::vector<Bun> idx;
  for (uint32_t i = 0; i < 8; ++i) idx.push_back({i, i % 4});

  auto cols = MaterializeJoin(items, {"qty", "shipmode"}, orders, {"clerk"},
                              idx);
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols->size(), 3u);
  EXPECT_EQ((*cols)[0].name, "qty");
  EXPECT_EQ((*cols)[0].type, PhysType::kU32);
  ASSERT_EQ((*cols)[0].u32_values.size(), 8u);
  EXPECT_EQ((*cols)[0].u32_values[3], 1 + 3 % 5);
  EXPECT_EQ((*cols)[1].type, PhysType::kStr);
  EXPECT_EQ((*cols)[1].str_values[1], "AIR");
  EXPECT_EQ((*cols)[2].name, "clerk");
  EXPECT_EQ((*cols)[2].str_values[5], "bob");
  // Unknown column propagates NotFound.
  EXPECT_EQ(MaterializeJoin(items, {"nope"}, orders, {}, idx).status().code(),
            StatusCode::kNotFound);
}

TEST(JoinTablesTest, JoinsOnU32Columns) {
  // orders(order_id) join items(order): classic FK join via the planner.
  auto orders_rows = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"prio", FieldType::kU32}}, 10);
  ASSERT_TRUE(orders_rows.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    size_t r = *orders_rows->AppendRow();
    orders_rows->SetU32(r, 0, i);
    orders_rows->SetU32(r, 1, i % 3);
  }
  Table orders = *Table::FromRowStore(*orders_rows);
  Table items = *Table::FromRowStore(MakeItems(30));  // order = i/3: 0..9

  auto idx = JoinTables(items, "order", orders, "order_id");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->size(), 30u);  // every item matches exactly one order
  for (const Bun& b : *idx) {
    EXPECT_EQ(b.head / 3, b.tail);  // item oid/3 == order oid
  }
}

}  // namespace
}  // namespace ccdb
