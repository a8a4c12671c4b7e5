// Statistics subsystem + cardinality estimator + statistics-driven
// planning: column stats (min/max, distinct sketches, lazy caching with
// invalidation on append), estimator edge cases (empty tables,
// single-value columns, all-distinct keys, correlated multi-key groups,
// join-key overlap), estimate-vs-actual bounds on real plans, join-chain
// reordering (visible in ExplainJoins, byte-identical at parallelism
// {1,2,8}), and the whole-plan ExplainCosts report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "exec/plan.h"
#include "exec/table.h"
#include "model/estimator.h"
#include "model/planner.h"
#include "model/stats.h"
#include "util/rng.h"

namespace ccdb {
namespace {

Table MakeU32Table(const char* col, const std::vector<uint32_t>& values) {
  auto rs = RowStore::Make({{col, FieldType::kU32}}, values.size() + 1);
  CCDB_CHECK(rs.ok());
  for (uint32_t v : values) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, v);
  }
  return *Table::FromRowStore(*rs);
}

QueryResult RunPlan(const LogicalPlan& plan, size_t parallelism,
                    bool reorder = true) {
  PlannerOptions opts;
  opts.exec.parallelism = parallelism;
  opts.exec.scan_chunk_rows = 4096;
  opts.reorder_joins = reorder;
  auto r = Execute(plan, opts);
  CCDB_CHECK(r.ok());
  return *std::move(r);
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.columns[c].u32_values, b.columns[c].u32_values) << what;
    EXPECT_EQ(a.columns[c].i64_values, b.columns[c].i64_values) << what;
    EXPECT_EQ(a.columns[c].f64_values, b.columns[c].f64_values) << what;
    EXPECT_EQ(a.columns[c].str_values, b.columns[c].str_values) << what;
  }
}

// --- DistinctCounter ---------------------------------------------------------

TEST(DistinctCounterTest, ExactBelowThreshold) {
  DistinctCounter dc;
  for (uint64_t i = 0; i < 1000; ++i) {
    dc.Add(DistinctCounter::Mix64(i % 100));
  }
  EXPECT_TRUE(dc.exact());
  EXPECT_EQ(dc.Estimate(), 100u);
}

TEST(DistinctCounterTest, SketchTracksLargeCardinalities) {
  DistinctCounter dc;
  const uint64_t kDistinct = 200000;
  for (uint64_t i = 0; i < kDistinct; ++i) {
    dc.Add(DistinctCounter::Mix64(i));
    dc.Add(DistinctCounter::Mix64(i));  // duplicates must not count
  }
  EXPECT_FALSE(dc.exact());
  double est = static_cast<double>(dc.Estimate());
  // 256 registers: ~6.5% standard error; 25% is a very safe CI bound.
  EXPECT_GT(est, kDistinct * 0.75);
  EXPECT_LT(est, kDistinct * 1.25);
}

// --- ColumnStats -------------------------------------------------------------

TEST(ColumnStatsTest, EmptyTable) {
  Table t = MakeU32Table("v", {});
  auto s = t.stats("v");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->row_count, 0u);
  EXPECT_EQ(s->distinct, 0u);
  EXPECT_FALSE(s->has_range);
}

TEST(ColumnStatsTest, SingleValueColumn) {
  Table t = MakeU32Table("v", std::vector<uint32_t>(500, 42));
  auto s = t.stats("v");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->row_count, 500u);
  EXPECT_EQ(s->distinct, 1u);
  EXPECT_TRUE(s->distinct_exact);
  EXPECT_TRUE(s->has_range);
  EXPECT_EQ(s->min, 42.0);
  EXPECT_EQ(s->max, 42.0);
}

TEST(ColumnStatsTest, RangeAndDistinct) {
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(7 + i % 250);
  Table t = MakeU32Table("v", v);
  auto s = t.stats("v");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->distinct, 250u);
  EXPECT_EQ(s->min, 7.0);
  EXPECT_EQ(s->max, 256.0);
}

TEST(ColumnStatsTest, EncodedStringColumnUsesDictionary) {
  auto rs = RowStore::Make({{"mode", FieldType::kChar10}}, 100);
  ASSERT_TRUE(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK"};
  for (size_t i = 0; i < 99; ++i) {
    size_t r = *rs->AppendRow();
    const char* m = modes[i % 3];
    rs->SetBytes(r, 0, m, strlen(m));
  }
  Table t = *Table::FromRowStore(*rs);
  ASSERT_TRUE(t.is_encoded(0));
  auto s = t.stats("mode");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->encoded);
  EXPECT_TRUE(s->distinct_exact);
  EXPECT_EQ(s->distinct, 3u);  // dictionary size
  EXPECT_TRUE(s->has_range);   // over the 1-byte codes
  EXPECT_EQ(s->min, 0.0);
  EXPECT_EQ(s->max, 2.0);
}

TEST(ColumnStatsTest, CacheInvalidatedOnAppend) {
  Table t = MakeU32Table("v", {1, 2, 3});
  auto before = t.stats("v");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->row_count, 3u);
  EXPECT_EQ(before->max, 3.0);

  auto extra = RowStore::Make({{"v", FieldType::kU32}}, 2);
  ASSERT_TRUE(extra.ok());
  for (uint32_t v : {90u, 91u}) {
    size_t r = *extra->AppendRow();
    extra->SetU32(r, 0, v);
  }
  ASSERT_TRUE(t.AppendRows(*extra).ok());
  EXPECT_EQ(t.num_rows(), 5u);
  auto after = t.stats("v");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->row_count, 5u);
  EXPECT_EQ(after->distinct, 5u);
  EXPECT_EQ(after->max, 91.0);
}

TEST(ColumnStatsTest, AppendRejectsSchemaMismatch) {
  Table t = MakeU32Table("v", {1});
  auto wrong = RowStore::Make({{"other", FieldType::kU32}}, 1);
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(t.AppendRows(*wrong).code(), StatusCode::kInvalidArgument);
}

// --- estimator: selectivities ------------------------------------------------

TEST(EstimatorTest, EmptyTableEstimatesZeroEverywhere) {
  Table t = MakeU32Table("v", {});
  auto plan = QueryBuilder(t).Filter(Col("v") == 1u).Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(EstimateNodeRows(plan->root()), 0u);
}

TEST(EstimatorTest, SingleValueColumnSelectivity) {
  Table t = MakeU32Table("v", std::vector<uint32_t>(400, 42));
  ColumnSourceMap src = {{"v", {&t, 0}}};
  // Equality on the only value: everything qualifies.
  EXPECT_DOUBLE_EQ(EstimateExprSelectivity(Col("v") == 42u, src), 1.0);
  // Equality outside the [42, 42] range: nothing.
  EXPECT_DOUBLE_EQ(EstimateExprSelectivity(Col("v") == 7u, src), 0.0);
  EXPECT_DOUBLE_EQ(EstimateExprSelectivity(Between(Col("v"), 0u, 10u), src),
                   0.0);
}

TEST(EstimatorTest, UniformRangeSelectivity) {
  std::vector<uint32_t> v(10000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<uint32_t>(i % 1000);
  Table t = MakeU32Table("v", v);
  ColumnSourceMap src = {{"v", {&t, 0}}};
  double sel = EstimateExprSelectivity(Between(Col("v"), 0u, 99u), src);
  EXPECT_GT(sel, 0.05);
  EXPECT_LT(sel, 0.15);
  // Negation complements, conjunction multiplies, disjunction unions.
  double neg = EstimateExprSelectivity(!Between(Col("v"), 0u, 99u), src);
  EXPECT_NEAR(sel + neg, 1.0, 1e-9);
  double conj = EstimateExprSelectivity(
      Between(Col("v"), 0u, 99u) && Between(Col("v"), 0u, 499u), src);
  EXPECT_LT(conj, sel + 1e-12);
}

// --- estimator: joins --------------------------------------------------------

TEST(EstimatorTest, ForeignKeyJoinEstimatesProbeCardinality) {
  Rng rng(11);
  std::vector<uint32_t> fk(50000);
  for (auto& v : fk) v = static_cast<uint32_t>(rng.NextBelow(1000));
  Table fact = MakeU32Table("fk", fk);
  std::vector<uint32_t> ids(1000);
  for (uint32_t i = 0; i < 1000; ++i) ids[i] = i;
  Table dim = MakeU32Table("id", ids);

  uint64_t est = EstimateJoinRows(fact.num_rows(), *fact.stats("fk"),
                                  dim.num_rows(), *dim.stats("id"),
                                  JoinType::kInner);
  EXPECT_GT(est, 25000u);
  EXPECT_LT(est, 100000u);
}

TEST(EstimatorTest, DisjointKeyRangesEstimateZero) {
  std::vector<uint32_t> lo(100), hi(100);
  for (uint32_t i = 0; i < 100; ++i) {
    lo[i] = i;           // [0, 99]
    hi[i] = 5000 + i;    // [5000, 5099]
  }
  Table l = MakeU32Table("a", lo);
  Table r = MakeU32Table("b", hi);
  EXPECT_EQ(EstimateJoinRows(l.num_rows(), *l.stats("a"), r.num_rows(),
                             *r.stats("b"), JoinType::kInner),
            0u);
  // Anti join of disjoint keys keeps every probe row.
  EXPECT_EQ(EstimateJoinRows(l.num_rows(), *l.stats("a"), r.num_rows(),
                             *r.stats("b"), JoinType::kAnti),
            100u);
}

// --- estimator: grouped cardinalities ---------------------------------------

TEST(EstimatorTest, AllDistinctKeysEstimateRowCount) {
  // Below the exact-counting threshold the estimate is exact (== rows).
  std::vector<uint32_t> v(3000);
  for (uint32_t i = 0; i < 3000; ++i) v[i] = i;
  Table t = MakeU32Table("id", v);
  std::vector<std::optional<ColumnStats>> keys = {*t.stats("id")};
  EXPECT_EQ(EstimateGroupCount(t.num_rows(), keys), 3000u);

  // Past the threshold the sketch takes over: still capped at the row
  // count, and within the sketch's error band of it.
  std::vector<uint32_t> big(50000);
  for (uint32_t i = 0; i < 50000; ++i) big[i] = i;
  Table bt = MakeU32Table("id", big);
  std::vector<std::optional<ColumnStats>> bkeys = {*bt.stats("id")};
  uint64_t est = EstimateGroupCount(bt.num_rows(), bkeys);
  EXPECT_LE(est, 50000u);
  EXPECT_GE(est, 37500u);  // sketch within 25%
}

TEST(EstimatorTest, CorrelatedMultiKeyGroupsAreDamped) {
  // Two perfectly correlated keys (b == a): the true group count is
  // |a| = 1000; a naive product says 1000^2 = 1M. The correlation cap
  // (exponential backoff) must keep the estimate far below the product
  // and within the row bound.
  const size_t kRows = 100000;
  auto rs = RowStore::Make({{"a", FieldType::kU32}, {"b", FieldType::kU32}},
                           kRows);
  ASSERT_TRUE(rs.ok());
  Rng rng(5);
  for (size_t i = 0; i < kRows; ++i) {
    size_t r = *rs->AppendRow();
    uint32_t v = static_cast<uint32_t>(rng.NextBelow(1000));
    rs->SetU32(r, 0, v);
    rs->SetU32(r, 1, v);
  }
  Table t = *Table::FromRowStore(*rs);
  std::vector<std::optional<ColumnStats>> keys = {*t.stats("a"),
                                                  *t.stats("b")};
  uint64_t est = EstimateGroupCount(kRows, keys);
  EXPECT_LE(est, kRows);
  EXPECT_LT(est, 100000u);  // far below the 1M naive product
  EXPECT_GE(est, 1000u);    // and no lower than the strongest single key
}

// --- estimate-vs-actual bounds on executed plans -----------------------------

TEST(EstimatorTest, PlanEstimatesWithinBoundsOfActuals) {
  Rng rng(17);
  const size_t kRows = 60000;
  auto rs = RowStore::Make(
      {{"g", FieldType::kU32}, {"v", FieldType::kU32}}, kRows);
  ASSERT_TRUE(rs.ok());
  for (size_t i = 0; i < kRows; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(64)));
    rs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(1000)));
  }
  Table t = *Table::FromRowStore(*rs);
  auto build = [&]() {
    auto p = QueryBuilder(t)
                 .Filter(Between(Col("v"), 0u, 249u))
                 .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  Planner planner;
  auto physical = planner.Lower(build());
  ASSERT_TRUE(physical.ok());
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok());

  // Find the Select and GroupByAgg records and bound estimate vs actual.
  bool saw_select = false, saw_group = false;
  for (const OpCostInfo& op : physical->costs()) {
    EXPECT_GT(op.label.size(), 0u);
    if (op.label.rfind("Select", 0) == 0) {
      saw_select = true;
      // Uniform data: the range estimate must land within 2x of actual.
      EXPECT_GT(op.estimated_rows, op.actual_rows / 2);
      EXPECT_LT(op.estimated_rows, op.actual_rows * 2);
      EXPECT_GT(op.predicted_ns, 0.0);
      EXPECT_GT(op.measured_inclusive_ns, 0.0);
      EXPECT_EQ(op.actual_rows, result->num_rows() == 0
                                    ? op.actual_rows
                                    : op.actual_rows);  // recorded
    }
    if (op.label.rfind("GroupByAgg", 0) == 0) {
      saw_group = true;
      EXPECT_EQ(op.actual_rows, result->num_rows());
      // 64 groups, millions of rows: estimate must be within 4x.
      EXPECT_GE(op.estimated_rows, op.actual_rows / 4);
      EXPECT_LE(op.estimated_rows, op.actual_rows * 4);
    }
  }
  EXPECT_TRUE(saw_select);
  EXPECT_TRUE(saw_group);
}

// --- join-chain reordering ---------------------------------------------------

struct ReorderFixture {
  Table fact, big, small;

  static ReorderFixture Make(size_t n_fact, size_t n_big, size_t n_small) {
    ReorderFixture f;
    Rng rng(23);
    auto frs = RowStore::Make(
        {{"bk", FieldType::kU32}, {"sk", FieldType::kU32},
         {"v", FieldType::kU32}},
        n_fact);
    CCDB_CHECK(frs.ok());
    for (size_t i = 0; i < n_fact; ++i) {
      size_t r = *frs->AppendRow();
      frs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(n_big)));
      // sk mostly misses the small dimension: the small join is selective.
      frs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(n_small * 20)));
      frs->SetU32(r, 2, static_cast<uint32_t>(rng.NextBelow(100)));
    }
    f.fact = *Table::FromRowStore(*frs);
    auto dim = [](size_t n, const char* key) {
      auto rs = RowStore::Make({{key, FieldType::kU32}}, n);
      CCDB_CHECK(rs.ok());
      for (size_t i = 0; i < n; ++i) {
        size_t r = *rs->AppendRow();
        rs->SetU32(r, 0, static_cast<uint32_t>(i));
      }
      return *Table::FromRowStore(*rs);
    };
    f.big = dim(n_big, "bid");
    f.small = dim(n_small, "sid");
    return f;
  }

  /// The suboptimal written order: the big, non-selective inner first.
  LogicalPlan BuildSuboptimal() const {
    auto p = QueryBuilder(fact)
                 .Join(big, "bk", "bid")
                 .Join(small, "sk", "sid")
                 .GroupByAgg({"v"}, {Agg::Sum("v"), Agg::Count()})
                 .OrderBy("v")
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  }
};

TEST(JoinReorderTest, SelectiveJoinMovesFirst) {
  ReorderFixture f = ReorderFixture::Make(60000, 30000, 500);
  Planner planner;
  auto physical = planner.Lower(f.BuildSuboptimal());
  ASSERT_TRUE(physical.ok());
  ASSERT_TRUE(physical->Execute().ok());

  ASSERT_EQ(physical->joins().size(), 2u);
  // joins() is in execution order: the selective small join must run first.
  EXPECT_EQ(physical->joins()[0].right_key, "sid");
  EXPECT_TRUE(physical->joins()[0].reordered);
  EXPECT_EQ(physical->joins()[1].right_key, "bid");
  EXPECT_TRUE(physical->joins()[1].reordered);
  // The big join's probe side shrank to the small join's output.
  EXPECT_LT(physical->joins()[1].estimated_probe_cardinality,
            f.fact.num_rows() / 2);
  std::string explain = physical->ExplainJoins();
  EXPECT_NE(explain.find("(reordered)"), std::string::npos);
  EXPECT_NE(explain.find("est C="), std::string::npos);
}

TEST(JoinReorderTest, ReorderingPreservesResults) {
  ReorderFixture f = ReorderFixture::Make(30000, 10000, 400);
  // OrderBy("v") + 100-value group domain pins the output order, so the
  // reordered plan must reproduce the unreordered results exactly, and
  // stay byte-identical across parallelism.
  QueryResult unreordered = RunPlan(f.BuildSuboptimal(), 1, false);
  QueryResult reordered = RunPlan(f.BuildSuboptimal(), 1, true);
  ASSERT_GT(unreordered.num_rows(), 0u);
  ExpectSameResult(reordered, unreordered, "reorder vs written order");
  for (size_t par : {2u, 8u}) {
    ExpectSameResult(RunPlan(f.BuildSuboptimal(), par, true), reordered,
                     "parallelism " + std::to_string(par));
  }
}

TEST(JoinReorderTest, DisabledByOption) {
  ReorderFixture f = ReorderFixture::Make(20000, 10000, 300);
  PlannerOptions opts;
  opts.reorder_joins = false;
  Planner planner(opts);
  auto physical = planner.Lower(f.BuildSuboptimal());
  ASSERT_TRUE(physical.ok());
  ASSERT_TRUE(physical->Execute().ok());
  ASSERT_EQ(physical->joins().size(), 2u);
  EXPECT_EQ(physical->joins()[0].right_key, "bid");  // written order
  EXPECT_FALSE(physical->joins()[0].reordered);
}

TEST(JoinReorderTest, NonBaseKeyPreventsReorder) {
  // The second join's probe key lives on the first join's inner relation,
  // so the chain does not commute — the planner must keep the written
  // order.
  const size_t kN = 2000;
  std::vector<uint32_t> ids(kN);
  for (uint32_t i = 0; i < kN; ++i) ids[i] = i;
  Table fact = MakeU32Table("fk", ids);
  auto mid_rs = RowStore::Make(
      {{"mid_id", FieldType::kU32}, {"other", FieldType::kU32}}, kN);
  ASSERT_TRUE(mid_rs.ok());
  for (uint32_t i = 0; i < kN; ++i) {
    size_t r = *mid_rs->AppendRow();
    mid_rs->SetU32(r, 0, i);
    mid_rs->SetU32(r, 1, i % 10);
  }
  Table mid = *Table::FromRowStore(*mid_rs);
  Table tiny = MakeU32Table("tid", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});

  auto plan = QueryBuilder(fact)
                  .Join(mid, "fk", "mid_id")
                  .Join(tiny, "other", "tid")  // "other" comes from mid!
                  .Build();
  ASSERT_TRUE(plan.ok());
  Planner planner;
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  auto result = physical->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), kN);
  ASSERT_EQ(physical->joins().size(), 2u);
  EXPECT_EQ(physical->joins()[0].right_key, "mid_id");
  EXPECT_FALSE(physical->joins()[0].reordered);
  EXPECT_FALSE(physical->joins()[1].reordered);
}

// --- ExplainCosts ------------------------------------------------------------

TEST(ExplainCostsTest, ReportsEveryOperatorWithPredictionsAndActuals) {
  ReorderFixture f = ReorderFixture::Make(20000, 5000, 200);
  Planner planner;
  auto physical = planner.Lower(f.BuildSuboptimal());
  ASSERT_TRUE(physical.ok());
  ASSERT_TRUE(physical->Execute().ok());

  // One cost record per logical node: scan x3, join x2, group, order.
  EXPECT_EQ(physical->costs().size(), 7u);
  for (const OpCostInfo& op : physical->costs()) {
    EXPECT_FALSE(op.label.empty());
    EXPECT_GT(op.measured_inclusive_ns, 0.0) << op.label;
  }
  std::string s = physical->ExplainCosts();
  for (const char* expect :
       {"Scan(", "Join(bk = bid", "Join(sk = sid", "GroupByAgg", "OrderBy",
        "pred", "meas", "Mcycles"}) {
    EXPECT_NE(s.find(expect), std::string::npos) << expect << "\n" << s;
  }
}

}  // namespace
}  // namespace ccdb
