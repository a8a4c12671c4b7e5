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
#include "util/rng.h"
#include "util/thread_pool.h"

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
  // price is f64; shipmode is an encoded string column, whose u32 codes a
  // u32 literal must not be compared against — neither as a sole leaf nor
  // as a conjunct that narrows survivors (`qty == 1u` ranks with the
  // shipmode Eq and stays first; `qty >= 0u` ranks after it).
  std::vector<Expr> mismatched;
  mismatched.push_back(Between(Col("price"), 10u, 20u));
  mismatched.push_back(Col("shipmode") == 2u);
  mismatched.push_back(Col("qty") >= 0u && Col("shipmode") == 2u);
  mismatched.push_back(Col("qty") == 1u && Col("shipmode") == 2u);
  for (Expr& e : mismatched) {
    std::string what = e.ToString();
    SelectOp op(std::make_unique<ScanOp>(&items, /*chunk_rows=*/64),
                std::move(e));
    ASSERT_TRUE(op.Open().ok());
    Chunk out;
    auto more = op.Next(&out);
    ASSERT_FALSE(more.ok()) << what;
    EXPECT_EQ(more.status().code(), StatusCode::kInvalidArgument) << what;
    op.Close();
  }
}

// --- every leaf path against a row-at-a-time oracle --------------------------

// leafy(id, sel, g u32; a8 u8; a16 u16; a32 u32; big i64; x f64; s char10):
// integral values are small (so every literal below both matches and
// misses) plus, on every 50th row, the type's maximum or a wide i64; x is
// NaN on every 7th row; sel is 1 on about three rows in four.
struct LeafyRow {
  uint32_t sel = 0, g = 0, a8 = 0, a16 = 0, a32 = 0;
  int64_t big = 0;
  double x = 0;
  std::string s;
};

std::vector<LeafyRow> MakeLeafyRows(size_t n) {
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP", "RAIL"};
  Rng rng(23);
  std::vector<LeafyRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    LeafyRow& r = rows[i];
    bool edge = i % 50 == 0;
    r.sel = rng.NextBelow(4) == 0 ? 0u : 1u;
    r.g = static_cast<uint32_t>(i / 3);
    r.a8 = edge ? 255 : static_cast<uint32_t>(rng.NextBelow(100));
    r.a16 = edge ? 65535 : static_cast<uint32_t>(rng.NextBelow(100));
    r.a32 = edge ? UINT32_MAX : static_cast<uint32_t>(rng.NextBelow(100));
    r.big = edge ? (i % 100 == 0 ? int64_t{1} << 40 : -(int64_t{1} << 40))
                 : static_cast<int64_t>(rng.NextBelow(200)) - 50;
    r.x = i % 7 == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(rng.NextBelow(100)) + 0.5;
    r.s = modes[rng.NextBelow(5)];
  }
  return rows;
}

RowStore LeafyRowStore(const std::vector<LeafyRow>& rows) {
  auto rs = RowStore::Make(
      {
          {"id", FieldType::kU32},
          {"sel", FieldType::kU32},
          {"g", FieldType::kU32},
          {"a8", FieldType::kU8},
          {"a16", FieldType::kU16},
          {"a32", FieldType::kU32},
          {"big", FieldType::kI64},
          {"x", FieldType::kF64},
          {"s", FieldType::kChar10},
      },
      rows.size());
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    const LeafyRow& row = rows[i];
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetU32(r, 1, row.sel);
    rs->SetU32(r, 2, row.g);
    rs->SetU8(r, 3, static_cast<uint8_t>(row.a8));
    uint16_t a16 = static_cast<uint16_t>(row.a16);
    rs->SetBytes(r, 4, &a16, sizeof(a16));
    rs->SetU32(r, 5, row.a32);
    rs->SetI64(r, 6, row.big);
    rs->SetF64(r, 7, row.x);
    rs->SetBytes(r, 8, row.s.data(), row.s.size());
  }
  return *std::move(rs);
}

/// One leaf and the row-at-a-time predicate it must agree with.
template <class Row>
struct OracleLeaf {
  std::string name;
  Expr expr;
  std::function<bool(const Row&)> keep;
};

template <class Row>
std::vector<OracleLeaf<Row>> IntegralLeaves(
    const std::string& c, std::function<int64_t(const Row&)> v) {
  auto on = [v](std::function<bool(int64_t)> p) {
    return [v, p](const Row& r) { return p(v(r)); };
  };
  return {
      {c + " == 37", Col(c) == 37u, on([](int64_t x) { return x == 37; })},
      {c + " != 37", Col(c) != 37u, on([](int64_t x) { return x != 37; })},
      {c + " < 37", Col(c) < 37u, on([](int64_t x) { return x < 37; })},
      {c + " <= 37", Col(c) <= 37u, on([](int64_t x) { return x <= 37; })},
      {c + " > 37", Col(c) > 37u, on([](int64_t x) { return x > 37; })},
      {c + " >= 37", Col(c) >= 37u, on([](int64_t x) { return x >= 37; })},
      {c + " in [20, 60]", Between(Col(c), 20u, 60u),
       on([](int64_t x) { return 20 <= x && x <= 60; })},
      {c + " not in [20, 60]", !Between(Col(c), 20u, 60u),
       on([](int64_t x) { return x < 20 || x > 60; })},
      // Empty on a8, a16 and a32 (values below 100 or the type's maximum).
      {c + " in [100, 254]", Between(Col(c), 100u, 254u),
       on([](int64_t x) { return 100 <= x && x <= 254; })},
      {c + " in [0, UINT32_MAX]", Between(Col(c), 0u, uint32_t{UINT32_MAX}),
       on([](int64_t x) { return 0 <= x && x <= int64_t{UINT32_MAX}; })},
      {c + " in {..}", InU32(Col(c), {99, 5, 37, 38, 255}),
       on([](int64_t x) {
         return x == 5 || x == 37 || x == 38 || x == 99 || x == 255;
       })},
      {c + " not in {..}", !InU32(Col(c), {99, 5, 37, 38, 255}),
       on([](int64_t x) {
         return !(x == 5 || x == 37 || x == 38 || x == 99 || x == 255);
       })},
      {c + " < 5e9", Col(c) < 5'000'000'000LL,
       on([](int64_t x) { return x < 5'000'000'000; })},
      {c + " in [-10, 5e9]", Between(Col(c), -10LL, 5'000'000'000LL),
       on([](int64_t x) { return -10 <= x && x <= 5'000'000'000; })},
      {c + " > -5", Col(c) > -5LL, on([](int64_t x) { return x > -5; })},
      {c + " < -5", Col(c) < -5LL, on([](int64_t x) { return x < -5; })},
      {c + " not in [-10, 5e9]", !Between(Col(c), -10LL, 5'000'000'000LL),
       on([](int64_t x) { return x < -10 || x > 5'000'000'000; })},
      {c + " <= UINT32_MAX", Col(c) <= uint32_t{UINT32_MAX},
       on([](int64_t x) { return x <= int64_t{UINT32_MAX}; })},
      {c + " > UINT32_MAX", Col(c) > uint32_t{UINT32_MAX},
       on([](int64_t x) { return x > int64_t{UINT32_MAX}; })},
  };
}

template <class Row>
std::vector<OracleLeaf<Row>> F64Leaves(const std::string& c,
                                       std::function<double(const Row&)> v) {
  auto on = [v](std::function<bool(double)> p) {
    return [v, p](const Row& r) { return p(v(r)); };
  };
  // IEEE: NaN fails every ordering and range test, its negation included,
  // and passes !=; a NaN literal does the same from the other side.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  return {
      {c + " == 50.5", Col(c) == 50.5, on([](double x) { return x == 50.5; })},
      {c + " != 50.5", Col(c) != 50.5, on([](double x) { return x != 50.5; })},
      {c + " < 50.5", Col(c) < 50.5, on([](double x) { return x < 50.5; })},
      {c + " <= 50.5", Col(c) <= 50.5, on([](double x) { return x <= 50.5; })},
      {c + " > 50.5", Col(c) > 50.5, on([](double x) { return x > 50.5; })},
      {c + " >= 50.5", Col(c) >= 50.5, on([](double x) { return x >= 50.5; })},
      {c + " in [20, 60]", Between(Col(c), 20.0, 60.0),
       on([](double x) { return 20.0 <= x && x <= 60.0; })},
      {c + " not in [20, 60]", !Between(Col(c), 20.0, 60.0),
       on([](double x) { return x < 20.0 || x > 60.0; })},
      {c + " == NaN", Col(c) == nan, on([](double) { return false; })},
      {c + " != NaN", Col(c) != nan, on([](double) { return true; })},
      {c + " < NaN", Col(c) < nan, on([](double) { return false; })},
      {c + " in [NaN, 60]", Between(Col(c), nan, 60.0),
       on([](double) { return false; })},
      {c + " not in [20, NaN]", !Between(Col(c), 20.0, nan),
       on([](double x) { return x < 20.0; })},
      {c + " < +inf", Col(c) < inf, on([](double x) { return x < inf; })},
      {c + " > -inf", Col(c) > -inf, on([](double x) { return x > -inf; })},
      {c + " == -0.0", Col(c) == -0.0, on([](double x) { return x == 0.0; })},
  };
}

template <class Row>
std::vector<OracleLeaf<Row>> StrLeaves(
    const std::string& c, std::function<const std::string&(const Row&)> v) {
  auto on = [v](std::function<bool(const std::string&)> p) {
    return [v, p](const Row& r) { return p(v(r)); };
  };
  auto in = [](const std::string& x) {
    return x == "AIR" || x == "SHIP";
  };
  return {
      {c + " == MAIL", Col(c) == "MAIL",
       on([](const std::string& x) { return x == "MAIL"; })},
      {c + " != MAIL", Col(c) != "MAIL",
       on([](const std::string& x) { return x != "MAIL"; })},
      {c + " == PIGEON", Col(c) == "PIGEON",
       on([](const std::string&) { return false; })},
      {c + " != PIGEON", Col(c) != "PIGEON",
       on([](const std::string&) { return true; })},
      {c + " in {..}", InStr(Col(c), {"SHIP", "AIR", "XXX"}), on(in)},
      {c + " not in {..}", !InStr(Col(c), {"SHIP", "AIR", "XXX"}),
       on([in](const std::string& x) { return !in(x); })},
  };
}

/// The four places a leaf sits in a filter: alone, as a conjunct narrowing
/// `pre`'s survivors (`pre` is an Eq, so selectivity ordering keeps it
/// first), as an OR branch over every row, and as an OR branch over `pre`'s
/// survivors.
template <class Row>
std::vector<OracleLeaf<Row>> LeafPositions(const OracleLeaf<Row>& leaf,
                                           const OracleLeaf<Row>& pre,
                                           const OracleLeaf<Row>& other) {
  auto l = leaf.keep, p = pre.keep, o = other.keep;
  return {
      {leaf.name, leaf.expr, l},
      {pre.name + " AND " + leaf.name, pre.expr && leaf.expr,
       [=](const Row& r) { return p(r) && l(r); }},
      {leaf.name + " OR " + other.name, leaf.expr || other.expr,
       [=](const Row& r) { return l(r) || o(r); }},
      {pre.name + " AND (" + leaf.name + " OR " + other.name + ")",
       pre.expr && (leaf.expr || other.expr),
       [=](const Row& r) { return p(r) && (l(r) || o(r)); }},
  };
}

/// Drains SelectOp(`child`, e) and returns the "id" values it emits.
std::vector<uint32_t> DrainIds(std::unique_ptr<Operator> child, Expr e,
                               const ExecContext* ctx) {
  SelectOp op(std::move(child), std::move(e), ctx);
  CCDB_CHECK(op.Open().ok());
  std::vector<uint32_t> ids;
  for (;;) {
    Chunk out;
    auto more = op.Next(&out);
    CCDB_CHECK(more.ok());
    if (!*more) break;
    auto v = out.GatherU32(*out.Find("id"));
    CCDB_CHECK(v.ok());
    ids.insert(ids.end(), v->begin(), v->end());
  }
  op.Close();
  return ids;
}

TEST(ExprExecTest, EveryLeafPathMatchesRowOracle) {
  // Chunks of 12k rows: a chunk splits into up to 3 morsels and pre's
  // ~9k survivors into 2, so parallelism 2 and 8 shard both walks.
  constexpr size_t kN = 24000, kChunk = 12288;
  const std::vector<LeafyRow> rows = MakeLeafyRows(kN);
  RowStore store = LeafyRowStore(rows);
  Table encoded = *Table::FromRowStore(store);
  Table raw = *Table::FromRowStore(store, /*auto_encode=*/false);
  ASSERT_TRUE(encoded.is_encoded(*encoded.schema().FieldIndex("s")));
  // String equality on the encoded table compares one-byte codes.
  ASSERT_EQ(encoded.column_bat(*encoded.schema().FieldIndex("s")).tail().type(),
            PhysType::kU8);
  ASSERT_FALSE(raw.is_encoded(*raw.schema().FieldIndex("s")));

  using Leaf = OracleLeaf<LeafyRow>;
  std::vector<Leaf> base_leaves;
  auto add = [](std::vector<Leaf>* to, std::vector<Leaf> from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  add(&base_leaves, IntegralLeaves<LeafyRow>(
                        "a8", [](const LeafyRow& r) { return int64_t{r.a8}; }));
  add(&base_leaves,
      IntegralLeaves<LeafyRow>(
          "a16", [](const LeafyRow& r) { return int64_t{r.a16}; }));
  add(&base_leaves,
      IntegralLeaves<LeafyRow>(
          "a32", [](const LeafyRow& r) { return int64_t{r.a32}; }));
  add(&base_leaves, IntegralLeaves<LeafyRow>(
                        "big", [](const LeafyRow& r) { return r.big; }));
  add(&base_leaves,
      F64Leaves<LeafyRow>("x", [](const LeafyRow& r) { return r.x; }));
  std::vector<Leaf> str_leaves = StrLeaves<LeafyRow>(
      "s", [](const LeafyRow& r) -> const std::string& { return r.s; });
  const Leaf pre{"sel == 1", Col("sel") == 1u,
                 [](const LeafyRow& r) { return r.sel == 1; }};
  const Leaf other{"a32 == 3", Col("a32") == 3u,
                   [](const LeafyRow& r) { return r.a32 == 3; }};

  // Every table-column shape: lazy over the scan's dense candidates, lazy
  // behind the sparse candidate list a previous select leaves, and strings
  // both dictionary-encoded and raw.
  struct Shape {
    const char* name;
    const Table* table;
    bool sparse;
    const std::vector<Leaf>* leaves;
  };
  const Shape shapes[] = {
      {"dense", &encoded, false, &base_leaves},
      {"sparse", &encoded, true, &base_leaves},
      {"encoded str", &encoded, false, &str_leaves},
      {"encoded str sparse", &encoded, true, &str_leaves},
      {"raw str", &raw, false, &str_leaves},
      {"raw str sparse", &raw, true, &str_leaves},
  };
  for (size_t par : {1u, 2u, 8u}) {
    ExecContext ctx;
    ctx.pool = &ThreadPool::Shared();
    ctx.parallelism = par;
    for (const Shape& shape : shapes) {
      for (const Leaf& leaf : *shape.leaves) {
        for (const Leaf& at : LeafPositions(leaf, pre, other)) {
          std::unique_ptr<Operator> child =
              std::make_unique<ScanOp>(shape.table, kChunk);
          auto keep = at.keep;
          if (shape.sparse) {
            // Dropping ~1% of the rows leaves the chunk behind an OID list.
            child = std::make_unique<SelectOp>(std::move(child),
                                               Col("a16") != 7u, &ctx);
            keep = [keep](const LeafyRow& r) {
              return r.a16 != 7 && keep(r);
            };
          }
          std::vector<uint32_t> want;
          for (size_t i = 0; i < kN; ++i) {
            if (keep(rows[i])) want.push_back(static_cast<uint32_t>(i));
          }
          EXPECT_EQ(DrainIds(std::move(child), at.expr, &ctx), want)
              << shape.name << ": " << at.name << " at parallelism " << par;
        }
      }
    }
  }

  // Owned columns: Having over GroupByAgg output (u32 group key and min,
  // i64 sum, f64 avg, decoded string key), on the first 3000 rows.
  struct GroupRow {
    uint32_t g = 0, mn = UINT32_MAX, msel = 1, count = 0;
    int64_t sum = 0, sum8 = 0;
    double avg = 0;
    std::string s;
  };
  constexpr size_t kHavingRows = 3000;
  std::map<std::pair<uint32_t, std::string>, GroupRow> by_key;
  for (size_t i = 0; i < kHavingRows; ++i) {
    const LeafyRow& r = rows[i];
    GroupRow& gr = by_key[{r.g, r.s}];
    gr.g = r.g;
    gr.s = r.s;
    gr.sum += r.a32;
    gr.sum8 += r.a8;
    gr.mn = std::min(gr.mn, r.a16);
    gr.msel = std::min(gr.msel, r.sel);
    ++gr.count;
  }
  std::vector<GroupRow> groups;
  for (auto& [key, gr] : by_key) {
    gr.avg = static_cast<double>(gr.sum8) / static_cast<double>(gr.count);
    groups.push_back(gr);
  }
  Table few = *Table::FromRowStore(LeafyRowStore(std::vector<LeafyRow>(
      rows.begin(), rows.begin() + kHavingRows)));
  using GroupLeaf = OracleLeaf<GroupRow>;
  std::vector<GroupLeaf> owned_leaves;
  auto add_owned = [&](std::vector<GroupLeaf> from) {
    owned_leaves.insert(owned_leaves.end(), from.begin(), from.end());
  };
  add_owned(IntegralLeaves<GroupRow>(
      "mn", [](const GroupRow& r) { return int64_t{r.mn}; }));
  add_owned(IntegralLeaves<GroupRow>(
      "sum", [](const GroupRow& r) { return r.sum; }));
  add_owned(F64Leaves<GroupRow>("avg",
                                [](const GroupRow& r) { return r.avg; }));
  add_owned(StrLeaves<GroupRow>(
      "s", [](const GroupRow& r) -> const std::string& { return r.s; }));
  const GroupLeaf group_pre{"msel == 1", Col("msel") == 1u,
                            [](const GroupRow& r) { return r.msel == 1; }};
  const GroupLeaf group_other{"g < 100", Col("g") < 100u,
                              [](const GroupRow& r) { return r.g < 100; }};
  for (size_t par : {1u, 2u, 8u}) {
    for (const GroupLeaf& leaf : owned_leaves) {
      for (const GroupLeaf& at : LeafPositions(leaf, group_pre, group_other)) {
        auto plan = QueryBuilder(few)
                        .GroupByAgg({"g", "s"},
                                    {Agg::Sum("a32").As("sum"),
                                     Agg::Min("a16").As("mn"),
                                     Agg::Avg("a8").As("avg"),
                                     Agg::Min("sel").As("msel")})
                        .Having(at.expr)
                        .Build();
        ASSERT_TRUE(plan.ok()) << at.name << ": " << plan.status().ToString();
        QueryResult result = RunPlan(*plan, par);
        std::vector<std::pair<uint32_t, std::string>> got, want;
        size_t gc = *result.ColumnIndex("g"), sc = *result.ColumnIndex("s");
        for (size_t i = 0; i < result.num_rows(); ++i) {
          got.emplace_back(result.columns[gc].u32_values[i],
                           result.columns[sc].str_values[i]);
        }
        for (const GroupRow& gr : groups) {
          if (at.keep(gr)) want.emplace_back(gr.g, gr.s);
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "having " << at.name << " at parallelism "
                             << par;
      }
    }
  }
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
