// The composable query API: builder validation, logical->physical lowering,
// candidate-list pipelining (pipelined == materialized), per-node cost-model
// planning, and the candidate-list BAT-algebra kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

#include "algo/bat_algebra.h"
#include "exec/plan.h"
#include "exec/shared_scan.h"
#include "model/planner.h"
#include "model/strategy.h"
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

Table MakeOrders(size_t n) {
  auto rs = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"prio", FieldType::kU32}}, n);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetU32(r, 1, static_cast<uint32_t>(i % 7));
  }
  return *Table::FromRowStore(*rs);
}

// --- builder validation ------------------------------------------------------

TEST(QueryBuilderTest, UnknownColumnIsNotFound) {
  Table t = *Table::FromRowStore(MakeItems(10));
  auto plan = QueryBuilder(t).Filter(Between(Col("nope"), 0u, 1u)).Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

TEST(QueryBuilderTest, PredicateTypeMismatch) {
  Table t = *Table::FromRowStore(MakeItems(10));
  // u32 range on an f64 column.
  auto p1 = QueryBuilder(t).Filter(Between(Col("price"), 0u, 1u)).Build();
  EXPECT_EQ(p1.status().code(), StatusCode::kInvalidArgument);
  // f64 range on a u32 column.
  auto p2 = QueryBuilder(t).Filter(Between(Col("qty"), 0.0, 1.0)).Build();
  EXPECT_EQ(p2.status().code(), StatusCode::kInvalidArgument);
  // String equality on a u32 column.
  auto p3 = QueryBuilder(t).Filter(Col("qty") == "x").Build();
  EXPECT_EQ(p3.status().code(), StatusCode::kInvalidArgument);
  // String equality on an encoded string column is fine.
  auto p4 = QueryBuilder(t).Filter(Col("shipmode") == "AIR").Build();
  EXPECT_TRUE(p4.ok());
}

TEST(QueryBuilderTest, JoinKeyMustBeU32) {
  Table items = *Table::FromRowStore(MakeItems(10));
  Table orders = MakeOrders(5);
  auto plan =
      QueryBuilder(items).Join(orders, "price", "order_id").Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  auto plan2 =
      QueryBuilder(items).Join(orders, "order", "order_id").Build();
  EXPECT_TRUE(plan2.ok());
}

TEST(QueryBuilderTest, AmbiguousColumnAfterSelfJoin) {
  Table items = *Table::FromRowStore(MakeItems(10));
  // items x items: every column name collides; referencing one is an error.
  auto plan = QueryBuilder(items)
                  .Join(items, "order", "order")
                  .Filter(Between(Col("qty"), 0u, 5u))
                  .Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("ambiguous"), std::string::npos);
}

TEST(QueryBuilderTest, EmptyProjectAndBadAggregates) {
  Table t = *Table::FromRowStore(MakeItems(10));
  auto p1 = QueryBuilder(t).Project({}).Build();
  EXPECT_EQ(p1.status().code(), StatusCode::kInvalidArgument);
  // Grouping on an f64 column.
  auto p2 = QueryBuilder(t)
                .GroupByAgg({"price"}, {Agg::Sum("qty"), Agg::Count()})
                .Build();
  EXPECT_EQ(p2.status().code(), StatusCode::kInvalidArgument);
  // Summing an f64 column.
  auto p3 = QueryBuilder(t)
                .GroupByAgg({"qty"}, {Agg::Sum("price"), Agg::Count()})
                .Build();
  EXPECT_EQ(p3.status().code(), StatusCode::kInvalidArgument);
  // Grouping on an encoded string column is fine.
  auto p4 = QueryBuilder(t)
                .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                .Build();
  EXPECT_TRUE(p4.ok());
}

TEST(QueryBuilderTest, OutputSchemaAndToString) {
  Table items = *Table::FromRowStore(MakeItems(12));
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "MAIL")
                  .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                  .OrderBy("sum", true)
                  .Limit(3)
                  .Build();
  ASSERT_TRUE(plan.ok());
  const auto& schema = plan->output_schema();
  ASSERT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema[0].name, "shipmode");
  EXPECT_EQ(schema[0].type, PhysType::kStr);
  EXPECT_EQ(schema[1].name, "sum");
  EXPECT_EQ(schema[1].type, PhysType::kI64);
  EXPECT_EQ(schema[2].name, "count");
  std::string s = plan->ToString();
  EXPECT_NE(s.find("Limit"), std::string::npos);
  EXPECT_NE(s.find("GroupByAgg"), std::string::npos);
  EXPECT_NE(s.find("Scan"), std::string::npos);
}

// --- execution vs hand-composed baselines ------------------------------------

TEST(PlanExecTest, SelectProjectMatchesBatAlgebra) {
  Rng rng(11);
  constexpr size_t kN = 5000;
  auto rs = RowStore::Make({{"a", FieldType::kU32}, {"b", FieldType::kU32}},
                           kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(1000)));
    rs->SetU32(r, 1, static_cast<uint32_t>(i));
  }
  Table t = *Table::FromRowStore(*rs);

  auto plan = QueryBuilder(t)
                  .Filter(Between(Col("a"), 100u, 300u))
                  .Project({"b"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());

  // Baseline: BatSelect on the a-BAT, positional BatJoin to reconstruct b.
  auto sel = BatSelect(t.column_bat(0), 100, 300);
  ASSERT_TRUE(sel.ok());
  auto cand = Bat::Make(sel->head(), sel->head());
  ASSERT_TRUE(cand.ok());
  auto b = BatJoin(*cand, t.column_bat(1));
  ASSERT_TRUE(b.ok());

  const auto& got = result->columns[0].u32_values;
  ASSERT_EQ(got.size(), b->size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], b->tail().Span<uint32_t>()[i]);
  }
}

TEST(PlanExecTest, SelectJoinAggregateMatchesOracle) {
  constexpr size_t kItems = 3000;
  RowStore rows = MakeItems(kItems);
  Table items = *Table::FromRowStore(rows);
  Table orders = MakeOrders(kItems / 3 + 1);

  // SELECT prio, SUM(qty) FROM items JOIN orders ON order = order_id
  // WHERE shipmode = 'MAIL' GROUP BY prio;
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "MAIL")
                  .Join(orders, "order", "order_id")
                  .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Row-at-a-time oracle.
  std::map<uint32_t, uint64_t> expect_sum;
  std::map<uint32_t, uint64_t> expect_count;
  for (size_t i = 0; i < kItems; ++i) {
    if (i % 4 != 0) continue;  // shipmode == "MAIL"
    uint32_t order = static_cast<uint32_t>(i / 3);
    uint32_t prio = order % 7;
    expect_sum[prio] += 1 + i % 5;
    expect_count[prio] += 1;
  }

  const auto& prio = result->columns[*result->ColumnIndex("prio")].u32_values;
  const auto& sum = result->columns[*result->ColumnIndex("sum")].i64_values;
  const auto& count =
      result->columns[*result->ColumnIndex("count")].i64_values;
  ASSERT_EQ(prio.size(), expect_sum.size());
  for (size_t g = 0; g < prio.size(); ++g) {
    EXPECT_EQ(static_cast<uint64_t>(sum[g]), expect_sum[prio[g]]) << prio[g];
    EXPECT_EQ(static_cast<uint64_t>(count[g]), expect_count[prio[g]]);
  }
}

TEST(PlanExecTest, OrderByLimitOffset) {
  Table items = *Table::FromRowStore(MakeItems(40));
  auto build = [&](bool desc, size_t limit, size_t offset) {
    auto plan = QueryBuilder(items)
                    .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                    .OrderBy("sum", desc)
                    .Limit(limit, offset)
                    .Build();
    CCDB_CHECK(plan.ok());
    auto r = Execute(*plan);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  QueryResult top = build(true, 2, 0);
  ASSERT_EQ(top.num_rows(), 2u);
  EXPECT_GE(top.columns[1].i64_values[0], top.columns[1].i64_values[1]);
  QueryResult rest = build(true, 2, 2);
  ASSERT_EQ(rest.num_rows(), 2u);
  // Offset continues where the first page ended.
  EXPECT_GE(top.columns[1].i64_values[1], rest.columns[1].i64_values[0]);
  QueryResult asc = build(false, 4, 0);
  ASSERT_EQ(asc.num_rows(), 4u);
  EXPECT_LE(asc.columns[1].i64_values[0], asc.columns[1].i64_values[3]);
}

TEST(PlanExecTest, EmptySelectionStillTyped) {
  Table items = *Table::FromRowStore(MakeItems(20));
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "PIGEON")
                  .Project({"qty", "shipmode"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
  ASSERT_EQ(result->num_columns(), 2u);
  EXPECT_EQ(result->columns[0].name, "qty");
  EXPECT_EQ(result->columns[1].type, PhysType::kStr);
}

// --- candidate-list equivalence ----------------------------------------------

TEST(PlanExecTest, PipelinedEqualsMaterialized) {
  constexpr size_t kItems = 10000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 + 1);
  auto build = [&]() {
    auto plan = QueryBuilder(items)
                    .Filter(Between(Col("qty"), 2u, 4u))
                    .Join(orders, "order", "order_id")
                    .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                    .OrderBy("prio")
                    .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  // Whole-BAT-at-a-time (full materialization, the paper's model) ...
  PlannerOptions mat;
  mat.exec.scan_chunk_rows = SIZE_MAX;
  auto materialized = Execute(build(), mat);
  ASSERT_TRUE(materialized.ok());
  // ... vs small chunks pipelined through select and join.
  for (size_t chunk : {64u, 257u, 4096u}) {
    PlannerOptions piped;
    piped.exec.scan_chunk_rows = chunk;
    auto pipelined = Execute(build(), piped);
    ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
    ASSERT_EQ(pipelined->num_columns(), materialized->num_columns());
    ASSERT_EQ(pipelined->num_rows(), materialized->num_rows()) << chunk;
    for (size_t c = 0; c < materialized->num_columns(); ++c) {
      EXPECT_EQ(pipelined->columns[c].u32_values,
                materialized->columns[c].u32_values);
      EXPECT_EQ(pipelined->columns[c].i64_values,
                materialized->columns[c].i64_values);
    }
  }
}

// --- per-node cost-model planning --------------------------------------------

TEST(PlannerTest, StrategySwitchesWithInnerCardinality) {
  // fact JOIN small (inner C=2000) JOIN big (inner C=1<<20): the model must
  // pick different physical plans for the two join nodes.
  constexpr size_t kFact = 20000, kSmall = 2000, kBig = 1 << 20;
  Rng rng(5);
  auto fact_rs = RowStore::Make(
      {{"sk", FieldType::kU32}, {"bk", FieldType::kU32}}, kFact);
  ASSERT_TRUE(fact_rs.ok());
  for (size_t i = 0; i < kFact; ++i) {
    size_t r = *fact_rs->AppendRow();
    fact_rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kSmall)));
    fact_rs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(kBig)));
  }
  Table fact = *Table::FromRowStore(*fact_rs);
  auto dim = [](size_t n, const char* key) {
    auto rs = RowStore::Make({{key, FieldType::kU32}}, n);
    CCDB_CHECK(rs.ok());
    for (size_t i = 0; i < n; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetU32(r, 0, static_cast<uint32_t>(i));
    }
    return *Table::FromRowStore(*rs);
  };
  Table small = dim(kSmall, "sid");
  Table big = dim(kBig, "bid");

  auto plan = QueryBuilder(fact)
                  .Join(small, "sk", "sid")
                  .Join(big, "bk", "bid")
                  .Build();
  ASSERT_TRUE(plan.ok());
  // Pinned to the static GenericX86 profile: the assertion below is about
  // the *model's* bits-vs-cardinality monotonicity at these (cache-sized)
  // relations, which the measured host profile's much larger TLB/L2
  // legitimately flattens.
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), kFact);  // both joins hit exactly once

  ASSERT_EQ(physical->joins().size(), 2u);
  const JoinNodeInfo& j_small = physical->joins()[0];
  const JoinNodeInfo& j_big = physical->joins()[1];
  EXPECT_EQ(j_small.inner_cardinality, kSmall);
  EXPECT_EQ(j_big.inner_cardinality, kBig);
  // Both dims have dense unique keys (id = i), and the model prices their
  // positional join below the hash argmin, so kBest indexes each inner by
  // key over its own domain.
  ASSERT_TRUE(j_small.plan.positional.has_value());
  EXPECT_EQ(j_small.plan.positional->key_range, kSmall);
  ASSERT_TRUE(j_big.plan.positional.has_value());
  EXPECT_EQ(j_big.plan.positional->key_range, kBig);
  // Without a key domain the cost model prescribes more radix bits as the
  // inner relation grows past the cache sizes; at 2000 vs 1M tuples the
  // plans must differ.
  EXPECT_LT(PlanJoin(JoinStrategy::kBest, kSmall, opts.profile).bits,
            PlanJoin(JoinStrategy::kBest, kBig, opts.profile).bits);
  EXPECT_EQ(j_small.stats.result_count + j_big.stats.result_count,
            2 * kFact);
}

TEST(PlannerTest, InnerSelectionChangesJoinPlan) {
  // The same join planned at full vs filtered inner cardinality: the
  // per-node planner must consult the model with the *actual* (post-
  // selection) cardinality, not the base table's.
  constexpr size_t kN = 1 << 20;
  Table fact = MakeOrders(5000);  // order_id 0..4999
  auto rs = RowStore::Make({{"id", FieldType::kU32}}, kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
  }
  Table big = *Table::FromRowStore(*rs);

  auto unfiltered = QueryBuilder(fact).Join(big, "order_id", "id").Build();
  ASSERT_TRUE(unfiltered.ok());
  QueryBuilder inner(big);
  inner.Filter(Between(Col("id"), 0u, 999u));
  auto filtered =
      QueryBuilder(fact).Join(std::move(inner), "order_id", "id").Build();
  ASSERT_TRUE(filtered.ok());

  // Static profile for the same reason as StrategySwitchesWithInnerCardinality.
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  Planner planner(opts);
  auto p1 = planner.Lower(*unfiltered);
  auto p2 = planner.Lower(*filtered);
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(p1->Execute().ok());
  ASSERT_TRUE(p2->Execute().ok());
  EXPECT_EQ(p1->joins()[0].inner_cardinality, kN);
  EXPECT_EQ(p2->joins()[0].inner_cardinality, 1000u);
  // The keys are dense and unique (id = i), so kBest joins positionally,
  // over the domain of the keys that survive the selection.
  ASSERT_TRUE(p1->joins()[0].plan.positional.has_value());
  EXPECT_EQ(p1->joins()[0].plan.positional->key_range, kN);
  ASSERT_TRUE(p2->joins()[0].plan.positional.has_value());
  EXPECT_EQ(p2->joins()[0].plan.positional->key_range, 1000u);
  // Without a key domain the hash argmin takes fewer bits at the filtered
  // cardinality.
  EXPECT_LT(PlanJoin(JoinStrategy::kBest, 1000, opts.profile).bits,
            PlanJoin(JoinStrategy::kBest, kN, opts.profile).bits);
  EXPECT_FALSE(p1->ExplainJoins().empty());
}

TEST(PlannerTest, DenseUniqueDimPlansPositionalElseTheHashArgmin) {
  // fact JOIN sigma(dim): 30 % of a dim whose keys are a permutation of
  // 0..kDim-1 survive the filter. kBest plans the positional join in the
  // estimate (from the key column's stats) and at Open() (from the keys).
  // The same dim with one repeated key among the survivors, and with its
  // keys spread x16 (range > rows: not eligible), runs the hash argmin of
  // the actual inner cardinality instead, with the same rows.
  constexpr uint32_t kDim = 100000, kFact = 200000;
  constexpr uint32_t kLo = 20000, kHi = kLo + kDim * 3 / 10 - 1;
  Rng rng(31);
  std::vector<uint32_t> perm(kDim);
  for (uint32_t i = 0; i < kDim; ++i) perm[i] = i;
  Shuffle(perm, rng);
  auto fact_rs = RowStore::Make({{"fk", FieldType::kU32}}, kFact);
  ASSERT_TRUE(fact_rs.ok());
  std::vector<uint32_t> fk(kFact);
  for (uint32_t i = 0; i < kFact; ++i) {
    fk[i] = static_cast<uint32_t>(rng.NextBelow(kDim));
    fact_rs->SetU32(*fact_rs->AppendRow(), 0, fk[i]);
  }
  Table fact = *Table::FromRowStore(*fact_rs);

  enum class Keys { kDense, kOneRepeated, kSpread };
  for (Keys variant : {Keys::kDense, Keys::kOneRepeated, Keys::kSpread}) {
    const uint32_t spread = variant == Keys::kSpread ? 16 : 1;
    std::vector<uint32_t> id(kDim);
    for (uint32_t i = 0; i < kDim; ++i) id[i] = perm[i] * spread;
    // Rows kLo and kLo + 1 both survive the filter.
    if (variant == Keys::kOneRepeated) id[kLo + 1] = id[kLo];
    auto rs = RowStore::Make(
        {{"id", FieldType::kU32}, {"attr", FieldType::kU32}}, kDim);
    ASSERT_TRUE(rs.ok());
    for (uint32_t i = 0; i < kDim; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetU32(r, 0, id[i]);
      rs->SetU32(r, 1, i);
    }
    Table dim = *Table::FromRowStore(*rs);
    QueryBuilder inner(dim);
    inner.Filter(Between(Col("attr"), kLo, kHi));
    auto plan = QueryBuilder(fact)
                    .Join(std::move(inner), "fk", "id")
                    .Project({"fk", "attr"})
                    .Build();
    ASSERT_TRUE(plan.ok());
    PlannerOptions opts;
    opts.profile = MachineProfile::GenericX86();
    auto physical = Planner(opts).Lower(*plan);
    ASSERT_TRUE(physical.ok());
    auto result = physical->Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const JoinNodeInfo& j = physical->joins()[0];
    ASSERT_EQ(j.inner_cardinality, kHi - kLo + 1);
    const JoinPlan hash =
        PlanJoin(JoinStrategy::kBest, j.inner_cardinality, opts.profile);
    // The stats see a spread range, but not one repeated key.
    EXPECT_EQ(j.estimated_positional, variant != Keys::kSpread);
    const std::string explain = physical->ExplainJoins();
    EXPECT_EQ(explain.find(" (positional), inner C=") != std::string::npos,
              variant != Keys::kSpread)
        << explain;
    EXPECT_EQ(explain.find("-> best (positional)") != std::string::npos,
              variant == Keys::kDense)
        << explain;
    if (variant == Keys::kDense) {
      ASSERT_TRUE(j.plan.positional.has_value());
      EXPECT_LE(j.plan.positional->key_range, kDim);
    } else {
      EXPECT_FALSE(j.plan.positional.has_value());
      EXPECT_EQ(j.plan.strategy, hash.strategy);
      EXPECT_EQ(j.plan.bits, hash.bits);
      EXPECT_EQ(j.plan.passes, hash.passes);
      EXPECT_EQ(j.plan.use_radix_join, hash.use_radix_join);
    }
    // (fk, attr) pairs against the fact keys and the surviving dim rows.
    std::multimap<uint32_t, uint32_t> attrs_of;
    for (uint32_t i = kLo; i <= kHi; ++i) attrs_of.emplace(id[i], i);
    std::vector<std::pair<uint32_t, uint32_t>> want, got;
    for (uint32_t k : fk) {
      auto [lo, hi] = attrs_of.equal_range(k);
      for (auto it = lo; it != hi; ++it) want.emplace_back(k, it->second);
    }
    for (size_t i = 0; i < result->num_rows(); ++i) {
      got.emplace_back(result->columns[0].u32_values[i],
                       result->columns[1].u32_values[i]);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << static_cast<int>(variant);
  }
}

// --- candidate-list kernels --------------------------------------------------

TEST(CandidateKernelTest, FilterPositionsThroughCandidates) {
  // One lazy u32 column v = {5, 10, 15, 20, 25, 30}, read through a
  // hand-built candidate list.
  auto rs = RowStore::Make({{"v", FieldType::kU32}}, 6);
  ASSERT_TRUE(rs.ok());
  for (uint32_t v : {5u, 10u, 15u, 20u, 25u, 30u}) {
    rs->SetU32(*rs->AppendRow(), 0, v);
  }
  Table t = *Table::FromRowStore(*rs);
  auto filter = [&](Candidates cands, Expr e) {
    Chunk chunk;
    chunk.rows = cands.count;
    chunk.cands = {std::move(cands)};
    ChunkColumn col;
    col.name = "v";
    col.base = &t;
    chunk.cols.push_back(std::move(col));
    return EvalFilterPositions(chunk, NormalizeExpr(std::move(e)), nullptr);
  };
  // Positions into the OID list {1, 3, 5}: OIDs 1 (10) and 3 (20).
  auto pos = filter(Candidates::FromOids({1, 3, 5}), Between(Col("v"), 10u, 25u));
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, (std::vector<uint32_t>{0, 1}));
  // Dense candidates [2, 5): values 15, 20, 25.
  auto dense = filter(Candidates::Dense(2, 3), Between(Col("v"), 20u, 99u));
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(*dense, (std::vector<uint32_t>{1, 2}));
  // An OID past the column is an error, not a skip, through a list and
  // through a dense range.
  EXPECT_EQ(filter(Candidates::FromOids({0, 99}), Between(Col("v"), 0u, 99u))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(filter(Candidates::Dense(4, 3), Between(Col("v"), 0u, 99u))
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(PlanExecTest, LazyI64ColumnsMaterialize) {
  auto rs = RowStore::Make({{"k", FieldType::kU32}, {"big", FieldType::kI64}},
                           6);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < 6; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetI64(r, 1, static_cast<int64_t>(i) * 1'000'000'000'000 - 3);
  }
  Table t = *Table::FromRowStore(*rs);
  auto plan = QueryBuilder(t)
                  .Filter(Between(Col("k"), 2u, 4u))
                  .OrderBy("big", /*descending=*/true)
                  .Project({"big"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->columns[0].type, PhysType::kI64);
  EXPECT_EQ(result->columns[0].i64_values,
            (std::vector<int64_t>{3'999'999'999'997, 2'999'999'999'997,
                                  1'999'999'999'997}));
}

TEST(PlanExecTest, GroupByManyDistinctKeys) {
  // Exercises the group table's rehash growth (far beyond the initial
  // 1024 buckets) and checks totals against a closed form.
  constexpr size_t kN = 100000;
  auto rs = RowStore::Make({{"g", FieldType::kU32}, {"v", FieldType::kU32}},
                           kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i / 2));  // 50000 groups
    rs->SetU32(r, 1, 1);
  }
  Table t = *Table::FromRowStore(*rs);
  auto plan = QueryBuilder(t)
                  .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), kN / 2);
  const auto& sums = result->columns[1].i64_values;
  for (int64_t s : sums) ASSERT_EQ(s, 2);
}

// --- parallel execution ------------------------------------------------------

// Canonical form for group-by output (parallel shard merging may reorder
// groups): rows sorted by group key.
std::vector<std::tuple<uint32_t, int64_t, int64_t>> CanonGroups(
    const QueryResult& r) {
  std::vector<std::tuple<uint32_t, int64_t, int64_t>> rows;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    rows.emplace_back(r.columns[0].u32_values[i], r.columns[1].i64_values[i],
                      r.columns[2].i64_values[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ParallelExecTest, SelectAndJoinAreByteIdenticalAtAnyParallelism) {
  constexpr size_t kItems = 50000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 + 1);
  auto build = [&]() {
    auto plan = QueryBuilder(items)
                    .Filter(Between(Col("qty"), 2u, 4u))
                    .Join(orders, "order", "order_id")
                    .Project({"qty", "prio"})
                    .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  PlannerOptions serial;
  serial.exec.scan_chunk_rows = 8192;  // several chunks
  serial.exec.parallelism = 1;
  auto expect = Execute(build(), serial);
  ASSERT_TRUE(expect.ok());
  ASSERT_GT(expect->num_rows(), 0u);
  for (size_t par : {2u, 8u}) {
    PlannerOptions opts = serial;
    opts.exec.parallelism = par;
    auto got = Execute(build(), opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Morsel and partition results concatenate in deterministic order:
    // select and join output must match the serial run row for row.
    ASSERT_EQ(got->num_rows(), expect->num_rows()) << par;
    for (size_t c = 0; c < expect->num_columns(); ++c) {
      EXPECT_EQ(got->columns[c].u32_values, expect->columns[c].u32_values)
          << "parallelism " << par;
    }
  }
}

TEST(ParallelExecTest, GroupByAndOrderByMatchSerialModuloRowOrder) {
  constexpr size_t kItems = 60000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 + 1);
  auto run = [&](size_t par, size_t chunk) {
    auto plan = QueryBuilder(items)
                    .Filter(Col("shipmode") == "MAIL")
                    .Join(orders, "order", "order_id")
                    .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = chunk;
    opts.exec.parallelism = par;
    auto r = Execute(*plan, opts);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  auto expect = CanonGroups(run(1, 8192));
  ASSERT_FALSE(expect.empty());
  for (size_t par : {2u, 8u}) {
    EXPECT_EQ(CanonGroups(run(par, 8192)), expect) << par;
    EXPECT_EQ(CanonGroups(run(par, SIZE_MAX)), expect) << par;
  }
  // OrderBy pins the row order completely: results must be byte-identical
  // even at parallelism 8 (parallel merge sort reproduces stable_sort).
  auto ordered = [&](size_t par) {
    auto plan = QueryBuilder(items)
                    .GroupByAgg({"order"}, {Agg::Sum("qty"), Agg::Count()})
                    .OrderBy("sum", /*descending=*/true)
                    .OrderBy("order")
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = 8192;
    opts.exec.parallelism = par;
    auto r = Execute(*plan, opts);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };
  QueryResult base = ordered(1);
  QueryResult par8 = ordered(8);
  ASSERT_EQ(par8.num_rows(), base.num_rows());
  EXPECT_EQ(par8.columns[0].u32_values, base.columns[0].u32_values);
  EXPECT_EQ(par8.columns[1].i64_values, base.columns[1].i64_values);
}

TEST(ParallelExecTest, EmptyAndSingleRowInputs) {
  for (size_t rows : {0u, 1u}) {
    Table items = *Table::FromRowStore(MakeItems(rows));
    Table orders = MakeOrders(5);
    for (size_t par : {1u, 2u, 8u}) {
      auto plan = QueryBuilder(items)
                      .Filter(Between(Col("qty"), 0u, 100u))
                      .Join(orders, "order", "order_id")
                      .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
                      .Build();
      ASSERT_TRUE(plan.ok());
      PlannerOptions opts;
      opts.exec.parallelism = par;
      auto r = Execute(*plan, opts);
      ASSERT_TRUE(r.ok()) << rows << " rows, parallelism " << par << ": "
                          << r.status().ToString();
      EXPECT_EQ(r->num_rows(), rows);  // 0 stays 0; the 1-row item matches
    }
  }
}

TEST(ParallelExecTest, InnerIsClusteredOncePerJoin) {
  // Many probe chunks over a radix-planned join: the inner build must
  // happen exactly once at Open(), not per probe chunk (the old defect),
  // and every chunk dispatches partition tasks. The dim's keys are dense
  // and unique, so kBest may plan the positional join on some host
  // profiles; a named phash strategy keeps the join radix-clustered on
  // any of them.
  constexpr size_t kN = 1 << 17;
  Rng rng(9);
  auto rs = RowStore::Make({{"k", FieldType::kU32}}, kN);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kN)));
  }
  Table fact = *Table::FromRowStore(*rs);
  auto dim_rs = RowStore::Make({{"id", FieldType::kU32}}, kN);
  ASSERT_TRUE(dim_rs.ok());
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *dim_rs->AppendRow();
    dim_rs->SetU32(r, 0, static_cast<uint32_t>(i));
  }
  Table dim = *Table::FromRowStore(*dim_rs);

  auto plan = QueryBuilder(fact)
                  .Join(dim, "k", "id", JoinStrategy::kPhashMin)
                  .Build();
  ASSERT_TRUE(plan.ok());
  PlannerOptions opts;
  opts.exec.scan_chunk_rows = 4096;  // 32 probe chunks
  opts.exec.parallelism = 4;
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), kN);

  ASSERT_EQ(physical->joins().size(), 1u);
  const JoinNodeInfo& j = physical->joins()[0];
  EXPECT_EQ(j.inner_cluster_runs, 1);  // the fix: one inner build, period
  EXPECT_GT(j.plan.bits, 0);
  EXPECT_GT(j.partition_tasks, 0u);
  EXPECT_EQ(j.parallelism, 4u);
  std::string explain = physical->ExplainJoins();
  EXPECT_NE(explain.find("partition tasks"), std::string::npos);
  EXPECT_NE(explain.find("inner clustered 1x"), std::string::npos);
}

TEST(ParallelExecTest, ZeroBitPhashPlanRunsAsSimpleHash) {
  // kPhashL2 on a 1k-row inner: 12 KB fits the L2, so the strategy's bits
  // round to 0. Such a plan must run the one-table simple-hash path (no
  // identity "cluster" copies, no single serial partition task), and its
  // output must not depend on the parallelism.
  constexpr size_t kItems = 30000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(1000);
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  opts.exec.scan_chunk_rows = 4096;  // several probe chunks
  ASSERT_EQ(StrategyBits(JoinStrategy::kPhashL2, 1000, opts.profile), 0);
  std::vector<std::vector<uint32_t>> expect;
  for (size_t par : {1u, 2u, 8u}) {
    auto plan = QueryBuilder(items)
                    .Join(orders, "order", "order_id", JoinStrategy::kPhashL2)
                    .Project({"qty", "prio"})
                    .Build();
    ASSERT_TRUE(plan.ok());
    opts.exec.parallelism = par;
    Planner planner(opts);
    auto physical = planner.Lower(*plan);
    ASSERT_TRUE(physical.ok());
    auto result = physical->Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_rows(), 3000u);  // orders 0..999, 3 items each

    ASSERT_EQ(physical->joins().size(), 1u);
    const JoinNodeInfo& j = physical->joins()[0];
    EXPECT_EQ(j.plan.strategy, JoinStrategy::kPhashL2);
    EXPECT_EQ(j.plan.bits, 0);
    EXPECT_EQ(j.partition_tasks, 0u) << "parallelism " << par;
    std::vector<std::vector<uint32_t>> got;
    for (const auto& col : result->columns) got.push_back(col.u32_values);
    if (par == 1) {
      expect = got;
    } else {
      EXPECT_EQ(got, expect) << "parallelism " << par;
    }
  }
}

TEST(PlannerTest, ExplainedJoinCostIsTheAsymmetricPrediction) {
  // The "model X ms" of ExplainJoins prices the join that ran: the actual
  // inner against the estimated probe side, not PlanJoin's symmetric
  // C = inner figure.
  Table items = *Table::FromRowStore(MakeItems(30000));
  Table orders = MakeOrders(10000);
  auto plan = QueryBuilder(items).Join(orders, "order", "order_id").Build();
  ASSERT_TRUE(plan.ok());
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  Planner planner(opts);
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  ASSERT_TRUE(physical->Execute().ok());
  const JoinNodeInfo& j = physical->joins()[0];
  ASSERT_EQ(j.inner_cardinality, 10000u);
  ASSERT_GT(j.estimated_probe_cardinality, 0u);
  CostModel model(opts.profile);
  double want = model.Millis(JoinModelPrediction(
      model, j.plan, j.inner_cardinality, j.estimated_probe_cardinality));
  EXPECT_DOUBLE_EQ(j.plan.predicted_ms, want);
  EXPECT_NE(j.plan.predicted_ms,
            PlanJoin(JoinStrategy::kBest, 10000, opts.profile).predicted_ms);
}

// --- join index --------------------------------------------------------------

TEST(PlanExecTest, ForeignKeyJoinIndex) {
  Table items = *Table::FromRowStore(MakeItems(300));
  Table orders = MakeOrders(101);
  // price = 10 + item oid and order_id = order oid: the projected pair is
  // the [item OID, order OID] join index.
  auto plan = QueryBuilder(items)
                  .Join(orders, "order", "order_id", JoinStrategy::kBest)
                  .Project({"price", "order_id"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  PlannerOptions opts;
  opts.profile = MachineProfile::GenericX86();
  auto physical = Planner(opts).Lower(*plan);
  ASSERT_TRUE(physical.ok());
  auto idx = physical->Execute();
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx->num_rows(), 300u);
  EXPECT_EQ(physical->joins()[0].stats.result_count, 300u);
  for (size_t i = 0; i < idx->num_rows(); ++i) {
    auto item = static_cast<uint32_t>(idx->columns[0].f64_values[i] - 10.0);
    EXPECT_EQ(item / 3, idx->columns[1].u32_values[i]);
  }
}

}  // namespace
}  // namespace ccdb
