// The typed expression API: Expr trees (And/Or/Not, Between, In-lists)
// built with the fluent Col() helpers, Filter/Having nodes with Build()-time
// type checking, NNF normalization, selectivity-ordered conjuncts, and the
// candidate-list lowering — disjunctions as sorted-position-list unions,
// never an intermediate BAT. Includes the regression for a u32 range with
// lo > hi, which used to silently select nothing and is now rejected at
// Build().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "model/planner.h"

namespace ccdb {
namespace {

// items(order u32, qty u32, price f64, shipmode char10): shipmode cycles
// MAIL/AIR/TRUCK/SHIP, so i % 4 == 0 <=> "MAIL"; qty = 1 + i % 5;
// price = 10 + i % 97.
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
    rs->SetF64(r, 2, 10.0 + static_cast<double>(i % 97));
    const char* m = modes[i % 4];
    rs->SetBytes(r, 3, m, strlen(m));
  }
  return *std::move(rs);
}

struct ItemRow {
  uint32_t order, qty;
  double price;
  const char* shipmode;
};

ItemRow ItemAt(size_t i) {
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  return {static_cast<uint32_t>(i / 3), static_cast<uint32_t>(1 + i % 5),
          10.0 + static_cast<double>(i % 97), modes[i % 4]};
}

QueryResult RunPlan(const LogicalPlan& plan, size_t parallelism,
                    size_t chunk_rows = 4096) {
  PlannerOptions opts;
  opts.exec.parallelism = parallelism;
  opts.exec.scan_chunk_rows = chunk_rows;
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

// --- construction and rendering ----------------------------------------------

TEST(ExprTest, FluentConstructionRenders) {
  Expr e = Col("qty") >= 2u &&
           (Col("shipmode") == "MAIL" || !Between(Col("price"), 10.0, 20.0));
  std::string s = e.ToString();
  EXPECT_NE(s.find("qty >= 2"), std::string::npos) << s;
  EXPECT_NE(s.find("shipmode = \"MAIL\""), std::string::npos) << s;
  EXPECT_NE(s.find("OR NOT ("), std::string::npos) << s;

  // && / || flatten at construction: three conjuncts, one And.
  Expr flat = (Col("a") == 1u && Col("b") == 2u) && Col("c") == 3u;
  EXPECT_EQ(flat.kind, Expr::Kind::kAnd);
  EXPECT_EQ(flat.children.size(), 3u);
  EXPECT_EQ(flat.ToString(), "a = 1 AND b = 2 AND c = 3");

  // In-lists render both domains; int literals are accepted.
  EXPECT_EQ(InU32(Col("qty"), {1, 5}).ToString(), "qty in {1, 5}");
  EXPECT_EQ((!InStr(Col("m"), {"A", "B"})).ToString(), "NOT (m in {\"A\", \"B\"})");
  EXPECT_EQ((Col("qty") < 7).ToString(), "qty < 7");
}

TEST(ExprTest, NormalizeIsNnfAndDeMorgan) {
  // NOT over OR: complement distributes into the leaves.
  Expr e = !(Col("a") == 1u || Between(Col("b"), 2u, 4u));
  Expr n = NormalizeExpr(e);
  EXPECT_EQ(n.kind, Expr::Kind::kAnd);
  EXPECT_EQ(n.ToString(), "a != 1 AND b not in [2, 4]");

  // NOT over AND with a nested NOT: !(x = 1 && !(y = "s" && z < 5))
  // = x != 1 || (y = "s" && z < 5).
  Expr m = NormalizeExpr(
      !(Col("x") == 1u && !(Col("y") == "s" && Col("z") < 5u)));
  EXPECT_EQ(m.ToString(), "x != 1 OR (y = \"s\" AND z < 5)");

  // Double negation collapses at construction already.
  Expr d = !!(Col("a") == 1u);
  EXPECT_EQ(d.ToString(), "a = 1");

  // Ordering comparisons complement exactly: !(a < 3) -> a >= 3.
  EXPECT_EQ(NormalizeExpr(!(Col("a") < 3u)).ToString(), "a >= 3");
  EXPECT_EQ(NormalizeExpr(!(Col("a") <= 3u)).ToString(), "a > 3");

  // Normalization is idempotent, and In-lists are sorted + deduplicated.
  Expr in = NormalizeExpr(!InU32(Col("a"), {5, 1, 3, 3}));
  EXPECT_EQ(in.ToString(), "a not in {1, 3, 5}");
  EXPECT_EQ(NormalizeExpr(in).ToString(), in.ToString());
}

TEST(ExprTest, ConjunctRanksAndOrdering) {
  EXPECT_EQ(ConjunctRank(Col("a") == 1u), 0);
  EXPECT_EQ(ConjunctRank(Col("a") >= 1u), 1);
  EXPECT_EQ(ConjunctRank(Between(Col("a"), 1u, 2u)), 1);
  EXPECT_EQ(ConjunctRank(InU32(Col("a"), {1})), 1);
  EXPECT_EQ(ConjunctRank(Col("a") == "s"), 2);
  EXPECT_EQ(ConjunctRank(InStr(Col("a"), {"s"})), 2);
  EXPECT_EQ(ConjunctRank(Col("a") == 1u || Col("b") == 2u), 3);

  Expr ordered = OrderConjunctsBySelectivity(
      Col("s") == "MAIL" && (Col("x") == 1u || Col("y") == 2u) &&
      Between(Col("r"), 0u, 9u) && Col("e") == 7u);
  EXPECT_EQ(ordered.ToString(),
            "e = 7 AND r in [0, 9] AND s = \"MAIL\" AND (x = 1 OR y = 2)");
}

// --- Build()-time validation -------------------------------------------------

TEST(ExprBuildTest, TypeChecksAgainstSchema) {
  Table items = *Table::FromRowStore(MakeItems(12));
  // Unknown column.
  EXPECT_EQ(QueryBuilder(items).Filter(Col("nope") == 1u).Build()
                .status().code(),
            StatusCode::kNotFound);
  // Integer comparison on f64 / string columns.
  EXPECT_EQ(QueryBuilder(items).Filter(Col("price") == 1u).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryBuilder(items).Filter(Col("shipmode") <= 3u).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  // Float comparison on u32 column.
  EXPECT_EQ(QueryBuilder(items).Filter(Col("qty") < 2.5).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  // String ordering comparisons are not supported.
  EXPECT_EQ(QueryBuilder(items).Filter(Col("shipmode") < "MAIL").Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  // Empty In-list.
  EXPECT_EQ(QueryBuilder(items).Filter(InU32(Col("qty"), {})).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  // Validation reaches leaves nested under NOT / OR.
  EXPECT_EQ(QueryBuilder(items)
                .Filter(Col("qty") == 1u || !(Col("price") == 2u))
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // A valid mixed tree builds and renders through the plan.
  auto plan = QueryBuilder(items)
                  .Filter(Col("qty") >= 2u &&
                          (Col("shipmode") == "MAIL" ||
                           !Between(Col("price"), 20.0, 50.0)))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->ToString().find("Select("), std::string::npos);
  EXPECT_NE(plan->ToString().find("OR"), std::string::npos);
}

// Regression: a u32 range with lo > hi used to Build() fine and
// silently select nothing; it must be an InvalidArgument now.
TEST(ExprBuildTest, InvertedRangesAreRejected) {
  Table items = *Table::FromRowStore(MakeItems(12));
  EXPECT_EQ(QueryBuilder(items).Filter(Between(Col("qty"), 5u, 2u)).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryBuilder(items)
                .Filter(Between(Col("price"), 5.0, 2.0))
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // NaN bounds are not lo > hi: they keep their never-match semantics.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto nan_plan =
      QueryBuilder(items).Filter(Between(Col("price"), nan, nan)).Build();
  ASSERT_TRUE(nan_plan.ok()) << nan_plan.status().ToString();
  EXPECT_EQ(RunPlan(*nan_plan, 1).num_rows(), 0u);
}

TEST(ExprBuildTest, HavingRequiresAggregateInput) {
  Table items = *Table::FromRowStore(MakeItems(12));
  // Having over a plain scan / select is rejected.
  EXPECT_EQ(QueryBuilder(items).Having(Col("qty") >= 2u).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryBuilder(items)
                .Filter(Between(Col("qty"), 0u, 9u))
                .Having(Col("qty") >= 2u)
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // Directly after GroupByAgg it type-checks against the aggregate schema:
  // u32 literals compare against the i64 sum/count outputs.
  auto ok = QueryBuilder(items)
                .GroupByAgg({"order"}, {Agg::Sum("qty"), Agg::Count()})
                .Having(Col("sum") >= 10u && Col("count") > 1u)
                .Having(Col("sum") <= 100u)  // Having chains on Having
                .Build();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_NE(ok->ToString().find("Having("), std::string::npos);
  // ... but an f64 literal against the i64 sum is a type error.
  EXPECT_EQ(QueryBuilder(items)
                .GroupByAgg({"order"}, {Agg::Sum("qty")})
                .Having(Col("sum") >= 1.5)
                .Build().status().code(),
            StatusCode::kInvalidArgument);
}

// --- disjunction execution ---------------------------------------------------

TEST(ExprExecTest, OrMatchesOracleAtAnyParallelism) {
  constexpr size_t kN = 30000;
  Table items = *Table::FromRowStore(MakeItems(kN));
  // The acceptance shape: a || (b && !c).
  auto build = [&]() {
    auto plan = QueryBuilder(items)
                    .Filter(Col("qty") == 5u ||
                            (Col("shipmode") == "MAIL" &&
                             !Between(Col("price"), 20.0, 80.0)))
                    .Project({"order", "qty", "price"})
                    .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  size_t oracle = 0;
  for (size_t i = 0; i < kN; ++i) {
    ItemRow r = ItemAt(i);
    bool b = r.qty == 5 || (std::strcmp(r.shipmode, "MAIL") == 0 &&
                            !(20.0 <= r.price && r.price <= 80.0));
    if (b) ++oracle;
  }
  auto plan = build();
  QueryResult expect = RunPlan(plan, 1, /*chunk_rows=*/1024);
  ASSERT_EQ(expect.num_rows(), oracle);
  ASSERT_GT(oracle, 0u);
  for (size_t par : {2u, 8u}) {
    ExpectSameResult(RunPlan(plan, par, /*chunk_rows=*/1024), expect,
                     "or-filter par " + std::to_string(par));
  }
  // Chunked and whole-BAT execution agree too (contents and order).
  ExpectSameResult(RunPlan(plan, 1, /*chunk_rows=*/SIZE_MAX), expect,
                   "or-filter whole-BAT");
}

TEST(ExprExecTest, DuplicatePositionsAcrossOrBranchesSurviveOnce) {
  constexpr size_t kN = 10000;
  Table items = *Table::FromRowStore(MakeItems(kN));
  // qty in [1,2] and qty in [2,3] overlap at qty == 2: every matching row
  // must appear exactly once, in scan order.
  auto plan = QueryBuilder(items)
                  .Filter(Between(Col("qty"), 1u, 2u) ||
                          Between(Col("qty"), 2u, 3u))
                  .Project({"order", "qty"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  size_t oracle = 0;
  for (size_t i = 0; i < kN; ++i) {
    if (ItemAt(i).qty <= 3) ++oracle;
  }
  for (size_t par : {1u, 2u, 8u}) {
    QueryResult r = RunPlan(*plan, par, /*chunk_rows=*/512);
    ASSERT_EQ(r.num_rows(), oracle) << par;
    const auto& qty = r.columns[1].u32_values;
    EXPECT_EQ(static_cast<size_t>(
                  std::count_if(qty.begin(), qty.end(),
                                [](uint32_t q) { return q == 2; })),
              kN / 5)
        << par;  // each qty==2 row exactly once
  }
}

TEST(ExprExecTest, OrOverEmptyCandidateLists) {
  Table empty = *Table::FromRowStore(MakeItems(0));
  Table items = *Table::FromRowStore(MakeItems(200));
  for (size_t par : {1u, 2u, 8u}) {
    // Every branch empty on a non-empty table.
    auto none = QueryBuilder(items)
                    .Filter(Col("qty") > 100u || Col("shipmode") == "PIGEON")
                    .Build();
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(RunPlan(*none, par).num_rows(), 0u) << par;
    // One empty branch, one non-empty: union is just the live branch.
    auto half = QueryBuilder(items)
                    .Filter(Col("qty") > 100u || Col("qty") == 2u)
                    .Build();
    ASSERT_TRUE(half.ok());
    EXPECT_EQ(RunPlan(*half, par).num_rows(), 40u) << par;
    // An Or narrowing an already-empty survivor list.
    auto nested = QueryBuilder(items)
                      .Filter(Col("qty") > 100u &&
                              (Col("qty") == 1u || Col("qty") == 2u))
                      .Build();
    ASSERT_TRUE(nested.ok());
    EXPECT_EQ(RunPlan(*nested, par).num_rows(), 0u) << par;
    // The whole pipeline over an empty table.
    auto on_empty = QueryBuilder(empty)
                        .Filter(Col("qty") == 1u ||
                                !(Col("shipmode") == "MAIL"))
                        .Build();
    ASSERT_TRUE(on_empty.ok());
    EXPECT_EQ(RunPlan(*on_empty, par).num_rows(), 0u) << par;
  }
}

TEST(ExprExecTest, InListsOnEncodedAndRawColumns) {
  constexpr size_t kN = 8000;
  RowStore rows = MakeItems(kN);
  Table encoded = *Table::FromRowStore(rows);
  Table raw = *Table::FromRowStore(rows, /*auto_encode=*/false);
  size_t in_u32 = 0, not_in_str = 0;
  for (size_t i = 0; i < kN; ++i) {
    ItemRow r = ItemAt(i);
    if (r.qty == 1 || r.qty == 3 || r.qty == 5) ++in_u32;
    if (std::strcmp(r.shipmode, "MAIL") != 0 &&
        std::strcmp(r.shipmode, "SHIP") != 0) {
      ++not_in_str;
    }
  }
  for (const Table* t : {&encoded, &raw}) {
    for (size_t par : {1u, 8u}) {
      auto u32_plan =
          QueryBuilder(*t).Filter(InU32(Col("qty"), {5, 1, 3, 3})).Build();
      ASSERT_TRUE(u32_plan.ok());
      EXPECT_EQ(RunPlan(*u32_plan, par).num_rows(), in_u32) << par;
      // "XXX" is not in the data: it drops out of the In set, and the
      // negated form matches everything the known strings don't.
      auto str_plan = QueryBuilder(*t)
                          .Filter(!InStr(Col("shipmode"),
                                         {"MAIL", "SHIP", "XXX"}))
                          .Build();
      ASSERT_TRUE(str_plan.ok());
      EXPECT_EQ(RunPlan(*str_plan, par).num_rows(), not_in_str) << par;
      // An unknown string negated on its own matches every row.
      auto all = QueryBuilder(*t).Filter(Col("shipmode") != "PIGEON").Build();
      ASSERT_TRUE(all.ok());
      EXPECT_EQ(RunPlan(*all, par).num_rows(), kN) << par;
    }
  }
}

TEST(ExprExecTest, F64NegationFollowsIeee) {
  auto rs = RowStore::Make({{"k", FieldType::kU32}, {"x", FieldType::kF64}},
                           64);
  ASSERT_TRUE(rs.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < 64; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetF64(r, 1, i % 4 == 0 ? nan : static_cast<double>(i));
  }
  Table t = *Table::FromRowStore(*rs);
  for (size_t par : {1u, 8u}) {
    // NaN fails the range and its negation ("outside [10, 20]" is
    // x < 10 || x > 20, false for NaN): 48 non-NaN values, 8 of them in
    // [10, 20] (12, 16 and 20 are NaN rows), so 40 outside.
    auto inside = QueryBuilder(t).Filter(Between(Col("x"), 10.0, 20.0)).Build();
    ASSERT_TRUE(inside.ok());
    EXPECT_EQ(RunPlan(*inside, par).num_rows(), 8u) << par;
    auto outside =
        QueryBuilder(t).Filter(!Between(Col("x"), 10.0, 20.0)).Build();
    ASSERT_TRUE(outside.ok());
    EXPECT_EQ(RunPlan(*outside, par).num_rows(), 40u) << par;
    // != is IEEE-true for NaN: every row but x == 17 matches.
    auto ne = QueryBuilder(t).Filter(Col("x") != 17.0).Build();
    ASSERT_TRUE(ne.ok());
    EXPECT_EQ(RunPlan(*ne, par).num_rows(), 63u) << par;
  }
}

// --- candidate-list-only execution (no intermediate BAT) ---------------------

TEST(ExprExecTest, FilterKeepsColumnsLazy) {
  Table items = *Table::FromRowStore(MakeItems(5000));
  // a || (b && !c): the acceptance-criteria shape, run directly through the
  // operator to inspect the chunk it emits.
  Expr e = Between(Col("qty"), 2u, 4u) ||
           (Col("shipmode") == "MAIL" && !Between(Col("price"), 20.0, 50.0));
  SelectOp op(std::make_unique<ScanOp>(&items, /*chunk_rows=*/1024),
              std::move(e));
  ASSERT_TRUE(op.Open().ok());
  Chunk out;
  size_t rows = 0, chunks = 0;
  for (;;) {
    auto more = op.Next(&out);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++chunks;
    rows += out.rows;
    // Every column is still a lazy base-table reference resolved through
    // the (shared) candidate list — the filter materialized nothing.
    for (const ChunkColumn& c : out.cols) {
      EXPECT_TRUE(c.lazy()) << c.name;
    }
    ASSERT_EQ(out.cands.size(), 1u);
    for (size_t i = 1; i < out.cands[0].count; ++i) {
      EXPECT_LT(out.cands[0].Get(i - 1), out.cands[0].Get(i));
    }
  }
  op.Close();
  EXPECT_GT(chunks, 1u);
  EXPECT_GT(rows, 0u);
}

TEST(ExprExecTest, DirectSelectOpTypeMismatchIsLoud) {
  // SelectOp composed directly bypasses Build() validation; a literal whose
  // domain doesn't match the column must surface InvalidArgument, never
  // silently compare against the wrong Literal member.
  Table items = *Table::FromRowStore(MakeItems(100));
  SelectOp op(std::make_unique<ScanOp>(&items, /*chunk_rows=*/64),
              Between(Col("price"), 10u, 20u));  // price is f64
  ASSERT_TRUE(op.Open().ok());
  Chunk out;
  auto more = op.Next(&out);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kInvalidArgument);
  op.Close();
}

TEST(ExprExecTest, EmptyConjunctionPassesThrough) {
  // A childless And (e.g. a default-constructed Expr) is logically true.
  Table items = *Table::FromRowStore(MakeItems(100));
  SelectOp op(std::make_unique<ScanOp>(&items, 64), Expr{});
  EXPECT_FALSE(op.expr().has_value());
  ASSERT_TRUE(op.Open().ok());
  Chunk out;
  size_t rows = 0;
  for (;;) {
    auto more = op.Next(&out);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows += out.rows;
  }
  op.Close();
  EXPECT_EQ(rows, 100u);
}

// --- Having ------------------------------------------------------------------

TEST(HavingTest, EveryAggKindFilters) {
  constexpr size_t kN = 21000;
  Table items = *Table::FromRowStore(MakeItems(kN));
  struct Oracle {
    int64_t sum = 0, count = 0;
    uint32_t min = UINT32_MAX, max = 0;
    double avg = 0;
  };
  std::map<uint32_t, Oracle> groups;
  for (size_t i = 0; i < kN; ++i) {
    ItemRow r = ItemAt(i);
    Oracle& o = groups[r.order];
    o.sum += r.qty;
    o.count += 1;
    o.min = std::min(o.min, r.qty);
    o.max = std::max(o.max, r.qty);
  }
  for (auto& [k, o] : groups) {
    o.avg = static_cast<double>(o.sum) / static_cast<double>(o.count);
  }
  auto base = [&]() {
    QueryBuilder qb(items);
    qb.GroupByAgg({"order"}, {Agg::Sum("qty"), Agg::Min("qty"),
                              Agg::Max("qty"), Agg::Avg("qty"), Agg::Count()});
    return qb;
  };
  struct Case {
    const char* name;
    Expr expr;
    std::function<bool(const Oracle&)> pred;
  };
  Case cases[] = {
      {"sum", Col("sum") >= 9u, [](const Oracle& o) { return o.sum >= 9; }},
      {"min", Col("min") >= 2u, [](const Oracle& o) { return o.min >= 2; }},
      {"max", Col("max") <= 4u, [](const Oracle& o) { return o.max <= 4; }},
      {"avg", Col("avg") > 3.0, [](const Oracle& o) { return o.avg > 3.0; }},
      {"count", Col("count") == 3u,
       [](const Oracle& o) { return o.count == 3; }},
      {"sum-and-avg", Col("sum") >= 9u && Col("avg") < 3.5,
       [](const Oracle& o) { return o.sum >= 9 && o.avg < 3.5; }},
  };
  for (const Case& c : cases) {
    auto qb = base();
    qb.Having(c.expr).OrderBy("order");
    auto plan = qb.Build();
    ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.status().ToString();
    size_t expect = 0;
    for (const auto& [k, o] : groups) {
      if (c.pred(o)) ++expect;
    }
    QueryResult serial = RunPlan(*plan, 1);
    ASSERT_EQ(serial.num_rows(), expect) << c.name;
    for (size_t g = 0; g < serial.num_rows(); ++g) {
      const Oracle& o = groups[serial.columns[0].u32_values[g]];
      EXPECT_TRUE(c.pred(o)) << c.name;
    }
    for (size_t par : {2u, 8u}) {
      ExpectSameResult(RunPlan(*plan, par), serial,
                       std::string(c.name) + " par " + std::to_string(par));
    }
  }
}

TEST(HavingTest, I64LiteralsCompareAboveU32Range) {
  // Regression: filter literals used to be u32/f64/string only, so a
  // Having on an i64 sum could not compare against constants above 2^32 —
  // this query was inexpressible before Literal::I64 (long long overloads).
  auto rs = RowStore::Make({{"g", FieldType::kU32}, {"v", FieldType::kU32}},
                           8);
  ASSERT_TRUE(rs.ok());
  // Group 0 sums to 8e9 (past 2^32 = 4294967296); groups 1 and 2 stay tiny.
  const uint32_t kBig = 4000000000u;
  struct {
    uint32_t g, v;
  } rows[] = {{0, kBig}, {0, kBig}, {1, 5}, {1, 6}, {2, 10}, {2, 20}};
  for (auto [g, v] : rows) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, g);
    rs->SetU32(r, 1, v);
  }
  Table t = *Table::FromRowStore(*rs);

  auto run = [&](Expr having) {
    auto plan = QueryBuilder(t)
                    .GroupByAgg({"g"}, {Agg::Sum("v")})
                    .Having(std::move(having))
                    .OrderBy("g")
                    .Build();
    CCDB_CHECK(plan.ok());
    return RunPlan(*plan, 1);
  };

  // Only group 0's sum exceeds 5e9.
  QueryResult above = run(Col("sum") > 5'000'000'000LL);
  ASSERT_EQ(above.num_rows(), 1u);
  EXPECT_EQ(above.columns[0].u32_values[0], 0u);
  EXPECT_EQ(above.columns[1].i64_values[0], 2 * (int64_t)kBig);

  QueryResult below = run(Col("sum") <= 5'000'000'000LL);
  ASSERT_EQ(below.num_rows(), 2u);
  EXPECT_EQ(below.columns[0].u32_values[0], 1u);
  EXPECT_EQ(below.columns[0].u32_values[1], 2u);

  QueryResult between = run(Between(Col("sum"), 5'000'000'000LL,
                                    9'000'000'000LL));
  ASSERT_EQ(between.num_rows(), 1u);
  EXPECT_EQ(between.columns[0].u32_values[0], 0u);

  // An i64 literal on a plain u32 column evaluates widened: v < 5e9 holds
  // for every u32 value (a u32 narrowing would have wrapped to 705032704).
  auto all = QueryBuilder(t).Filter(Col("v") < 5'000'000'000LL).Build();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(RunPlan(*all, 1).num_rows(), 6u);

  // Runtime-computed thresholds: int64_t/uint64_t/size_t *variables* (and
  // mixed-type Between bounds) must resolve without an explicit cast —
  // these were ambiguous among the uint32_t/int/long long/double
  // overloads when only literal suffixes were supported.
  int64_t threshold = 5'000'000'000;
  QueryResult via_var = run(Col("sum") > threshold);
  ASSERT_EQ(via_var.num_rows(), 1u);
  EXPECT_EQ(via_var.columns[0].u32_values[0], 0u);
  uint64_t uthreshold = 5'000'000'000ull;
  EXPECT_EQ(run(Col("sum") > uthreshold).num_rows(), 1u);
  size_t small = 40;
  EXPECT_EQ(run(Col("sum") < small).num_rows(), 2u);  // groups 1 and 2
  EXPECT_EQ(run(Between(Col("sum"), 0, 9'000'000'000LL)).num_rows(), 3u);
  EXPECT_EQ(run(Between(Col("sum"), threshold, int64_t{9'000'000'000}))
                .num_rows(),
            1u);

  // Type checking still applies: i64 literals are integral-only.
  auto rs2 = RowStore::Make({{"f", FieldType::kF64}}, 1);
  ASSERT_TRUE(rs2.ok());
  Table ft = *Table::FromRowStore(*rs2);
  EXPECT_EQ(QueryBuilder(ft).Filter(Col("f") > 5'000'000'000LL).Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Inverted i64 ranges are rejected like u32/f64 ones.
  EXPECT_EQ(QueryBuilder(t)
                .GroupByAgg({"g"}, {Agg::Sum("v")})
                .Having(Between(Col("sum"), 9'000'000'000LL,
                                5'000'000'000LL))
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --- explain and end-to-end determinism --------------------------------------

TEST(ExplainFiltersTest, ReportsNormalizedTreeAndOrder) {
  Table items = *Table::FromRowStore(MakeItems(600));
  auto plan = QueryBuilder(items)
                  .Filter(Col("shipmode") == "MAIL" &&
                          !(Col("qty") > 4u || Col("price") < 15.0) &&
                          Col("order") == 7u)
                  .GroupByAgg({"order"}, {Agg::Sum("qty")})
                  .Having(Col("sum") >= 4u)
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Planner planner;
  auto physical = planner.Lower(*plan);
  ASSERT_TRUE(physical.ok());
  ASSERT_EQ(physical->filters().size(), 2u);
  const FilterNodeInfo& select = physical->filters()[0];
  EXPECT_STREQ(select.node, "select");
  // NNF: the NOT pushed into the leaves (qty <= 4 AND price >= 15), then
  // flattened into the outer conjunction and ordered eq < range < str-eq.
  EXPECT_EQ(select.normalized,
            "order = 7 AND qty <= 4 AND price >= 15.000000 AND "
            "shipmode = \"MAIL\"");
  ASSERT_EQ(select.conjuncts.size(), 4u);
  EXPECT_EQ(select.ranks, (std::vector<int>{0, 1, 1, 2}));
  const FilterNodeInfo& having = physical->filters()[1];
  EXPECT_STREQ(having.node, "having");
  EXPECT_EQ(having.normalized, "sum >= 4");
  std::string s = physical->ExplainFilters();
  EXPECT_NE(s.find("filter [select]"), std::string::npos) << s;
  EXPECT_NE(s.find("filter [having]"), std::string::npos) << s;
  EXPECT_NE(s.find("[str-eq]"), std::string::npos) << s;
  EXPECT_NE(s.find("eval order:"), std::string::npos) << s;

  auto result = physical->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ExprEndToEndTest, OrHeavyPlanThroughJoinAndAggregate) {
  constexpr size_t kItems = 24000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  auto orders_rs = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"prio", FieldType::kU32}}, kItems / 3);
  ASSERT_TRUE(orders_rs.ok());
  for (size_t i = 0; i < kItems / 3; ++i) {
    size_t r = *orders_rs->AppendRow();
    orders_rs->SetU32(r, 0, static_cast<uint32_t>(i));
    orders_rs->SetU32(r, 1, static_cast<uint32_t>(i % 7));
  }
  Table orders = *Table::FromRowStore(*orders_rs);
  auto build = [&]() {
    auto plan =
        QueryBuilder(items)
            .Filter((Col("qty") == 5u || Col("shipmode") == "MAIL" ||
                     Between(Col("price"), 90.0, 100.0)) &&
                    !InU32(Col("qty"), {2}))
            .Join(orders, "order", "order_id")
            .GroupByAgg({"prio"}, {Agg::Sum("qty"), Agg::Count()})
            .Having(Col("count") >= 1u)
            .OrderBy("prio")
            .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  auto plan = build();
  QueryResult expect = RunPlan(plan, 1, /*chunk_rows=*/2048);
  ASSERT_GT(expect.num_rows(), 0u);
  for (size_t par : {2u, 8u}) {
    ExpectSameResult(RunPlan(plan, par, /*chunk_rows=*/2048), expect,
                     "or-heavy end-to-end par " + std::to_string(par));
  }
}

}  // namespace
}  // namespace ccdb
