// The richer BAT algebra: multi-key GroupByAgg (sum/min/max/avg/count),
// conjunctive selects fused into one candidate pass, outer/anti/semi joins
// from the prepared-once inner — plus regression tests for the operator
// edge cases fixed alongside (Limit(0) draining its child, QueryBuilder
// reuse after Build(), unchecked u64 -> i64 aggregate narrowing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>

#include "algo/aggregate.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "mem/access.h"
#include "mem/machine.h"
#include "model/planner.h"
#include "util/rng.h"

namespace ccdb {
namespace {

// items(order u32, qty u32, price f64, shipmode char10): shipmode cycles
// MAIL/AIR/TRUCK/SHIP, so i % 4 == 0 <=> "MAIL".
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

Table TableFromU32(const char* name, const std::vector<uint32_t>& values) {
  auto rs = RowStore::Make({{name, FieldType::kU32}}, values.size());
  CCDB_CHECK(rs.ok());
  for (uint32_t v : values) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, v);
  }
  return *Table::FromRowStore(*rs);
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

// --- builder validation ------------------------------------------------------

TEST(RichAlgebraBuilderTest, GroupByAggSchemaAndTypes) {
  Table items = *Table::FromRowStore(MakeItems(24));
  auto plan = QueryBuilder(items)
                  .GroupByAgg({"order", "shipmode"},
                              {Agg::Sum("qty"), Agg::Min("qty"),
                               Agg::Max("qty"), Agg::Avg("qty"),
                               Agg::Count(), Agg::Sum("qty").As("qty2")})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto& schema = plan->output_schema();
  ASSERT_EQ(schema.size(), 8u);
  EXPECT_EQ(schema[0].name, "order");
  EXPECT_EQ(schema[0].type, PhysType::kU32);
  EXPECT_EQ(schema[1].name, "shipmode");
  EXPECT_EQ(schema[1].type, PhysType::kStr);
  EXPECT_FALSE(schema[1].encoded);  // decoded on emission
  EXPECT_EQ(schema[2].name, "sum");
  EXPECT_EQ(schema[2].type, PhysType::kI64);
  EXPECT_EQ(schema[3].name, "min");
  EXPECT_EQ(schema[3].type, PhysType::kU32);
  EXPECT_EQ(schema[4].name, "max");
  EXPECT_EQ(schema[4].type, PhysType::kU32);
  EXPECT_EQ(schema[5].name, "avg");
  EXPECT_EQ(schema[5].type, PhysType::kF64);
  EXPECT_EQ(schema[6].name, "count");
  EXPECT_EQ(schema[6].type, PhysType::kI64);
  EXPECT_EQ(schema[7].name, "qty2");
  std::string s = plan->ToString();
  EXPECT_NE(s.find("min(qty)"), std::string::npos);
  EXPECT_NE(s.find("avg(qty)"), std::string::npos);
  EXPECT_NE(s.find("sum(qty) as qty2"), std::string::npos);
}

TEST(RichAlgebraBuilderTest, GroupByAggRejectsBadSpecs) {
  Table items = *Table::FromRowStore(MakeItems(10));
  // Empty group / aggregate lists.
  EXPECT_EQ(QueryBuilder(items).GroupByAgg({}, {Agg::Count()}).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryBuilder(items).GroupByAgg({"order"}, {}).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  // Duplicate group column.
  EXPECT_EQ(QueryBuilder(items)
                .GroupByAgg({"order", "order"}, {Agg::Count()})
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // Duplicate output names need As().
  EXPECT_EQ(QueryBuilder(items)
                .GroupByAgg({"order"}, {Agg::Sum("qty"), Agg::Sum("qty")})
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // f64 value column and f64 group column are rejected.
  EXPECT_EQ(QueryBuilder(items).GroupByAgg({"order"}, {Agg::Min("price")})
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryBuilder(items).GroupByAgg({"price"}, {Agg::Count()})
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // Unknown value column.
  EXPECT_EQ(QueryBuilder(items).GroupByAgg({"order"}, {Agg::Max("nope")})
                .Build().status().code(),
            StatusCode::kNotFound);
}

TEST(RichAlgebraBuilderTest, ConjunctionValidatesAsOneNode) {
  Table items = *Table::FromRowStore(MakeItems(10));
  // Empty conjunction is rejected.
  EXPECT_EQ(QueryBuilder(items).Filter(Expr{}).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
  // Every conjunct is validated, not just the first.
  EXPECT_EQ(QueryBuilder(items)
                .Filter(Between(Col("qty"), 0u, 3u) &&
                        Between(Col("price"), 0u, 3u))
                .Build().status().code(),
            StatusCode::kInvalidArgument);
  // A valid three-way mixed conjunction renders as one Select node.
  auto plan = QueryBuilder(items)
                  .Filter(Between(Col("qty"), 2u, 4u) &&
                          Col("shipmode") == "MAIL" &&
                          Between(Col("price"), 0.0, 60.0))
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string s = plan->ToString();
  EXPECT_NE(s.find("qty in [2, 4] AND shipmode = \"MAIL\" AND"),
            std::string::npos);
  // One Select line, not three.
  size_t first = s.find("Select");
  EXPECT_EQ(s.find("Select", first + 1), std::string::npos);
}

TEST(RichAlgebraBuilderTest, JoinTypeSchemas) {
  Table items = *Table::FromRowStore(MakeItems(12));
  Table orders = MakeOrders(5);
  // Semi/anti keep only left columns.
  for (JoinType t : {JoinType::kSemi, JoinType::kAnti}) {
    auto plan =
        QueryBuilder(items).Join(orders, "order", "order_id", t).Build();
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->output_schema().size(), items.num_columns());
    for (const PlanColumn& c : plan->output_schema()) {
      EXPECT_FALSE(c.nullable);
    }
    EXPECT_NE(plan->ToString().find(JoinTypeName(t)), std::string::npos);
  }
  // Left outer: right columns appended, nullable, decoded.
  auto outer = QueryBuilder(items)
                   .Join(orders, "order", "order_id", JoinType::kLeftOuter)
                   .Build();
  ASSERT_TRUE(outer.ok());
  const auto& schema = outer->output_schema();
  ASSERT_EQ(schema.size(), items.num_columns() + orders.num_columns());
  for (size_t i = 0; i < items.num_columns(); ++i) {
    EXPECT_FALSE(schema[i].nullable);
  }
  for (size_t i = items.num_columns(); i < schema.size(); ++i) {
    EXPECT_TRUE(schema[i].nullable);
    EXPECT_FALSE(schema[i].encoded);
  }
  EXPECT_NE(outer->ToString().find("left_outer"), std::string::npos);
}

// --- satellite regression: QueryBuilder reuse after Build() ------------------

TEST(QueryBuilderReuseTest, SecondBuildIsInvalidArgumentNotUB) {
  Table items = *Table::FromRowStore(MakeItems(10));
  QueryBuilder qb(items);
  qb.Filter(Between(Col("qty"), 0u, 3u));
  auto first = qb.Build();
  ASSERT_TRUE(first.ok());
  auto second = qb.Build();
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuilderReuseTest, FluentCallAfterBuildIsSafe) {
  Table items = *Table::FromRowStore(MakeItems(10));
  Table orders = MakeOrders(5);
  QueryBuilder qb(items);
  auto first = qb.Build();
  ASSERT_TRUE(first.ok());
  // Every fluent method on a consumed builder must be a safe no-op ...
  qb.Filter(Between(Col("qty"), 0u, 3u))
      .Join(orders, "order", "order_id")
      .Project({"qty"})
      .GroupByAgg({"qty"}, {Agg::Count()})
      .OrderBy("count")
      .Limit(1);
  // ... and the next Build() reports the reuse.
  EXPECT_EQ(qb.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuilderReuseTest, JoiningAConsumedBuilderFailsCleanly) {
  Table items = *Table::FromRowStore(MakeItems(10));
  Table orders = MakeOrders(5);
  QueryBuilder inner(orders);
  ASSERT_TRUE(inner.Build().ok());  // consumes inner
  auto plan = QueryBuilder(items)
                  .Join(std::move(inner), "order", "order_id")
                  .Build();
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// --- satellite regression: Limit(0) must not drain its child -----------------

/// Wraps a ScanOp and counts Next() calls, so tests can see how many chunks
/// a parent operator actually pulled.
class CountingSource : public Operator {
 public:
  CountingSource(const Table* table, size_t chunk_rows)
      : scan_(table, chunk_rows) {}
  Status Open() override { return scan_.Open(); }
  StatusOr<bool> Next(Chunk* out) override {
    ++next_calls;
    return scan_.Next(out);
  }
  void Close() override { scan_.Close(); }

  int next_calls = 0;

 private:
  ScanOp scan_;
};

TEST(LimitZeroTest, TerminatesAfterFirstLayoutChunk) {
  Table items = *Table::FromRowStore(MakeItems(100));
  auto source = std::make_unique<CountingSource>(&items, /*chunk_rows=*/10);
  CountingSource* counter = source.get();
  LimitOp limit(std::move(source), /*limit=*/0, /*offset=*/0);
  ASSERT_TRUE(limit.Open().ok());
  Chunk out;
  auto first = limit.Next(&out);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);  // one layout-bearing chunk ...
  EXPECT_EQ(out.rows, 0u);
  EXPECT_EQ(out.cols.size(), items.num_columns());
  auto second = limit.Next(&out);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);  // ... then done,
  limit.Close();
  // without draining the remaining 9 chunks of the child.
  EXPECT_EQ(counter->next_calls, 1);
}

TEST(LimitZeroTest, LimitStopsPullingOnceReached) {
  Table items = *Table::FromRowStore(MakeItems(100));
  auto source = std::make_unique<CountingSource>(&items, /*chunk_rows=*/10);
  CountingSource* counter = source.get();
  LimitOp limit(std::move(source), /*limit=*/15, /*offset=*/0);
  ASSERT_TRUE(limit.Open().ok());
  Chunk out;
  size_t rows = 0;
  for (;;) {
    auto more = limit.Next(&out);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows += out.rows;
  }
  limit.Close();
  EXPECT_EQ(rows, 15u);
  EXPECT_EQ(counter->next_calls, 2);  // 10 + 5, then stop
}

TEST(LimitZeroTest, EndToEndLimitZeroKeepsSchema) {
  Table items = *Table::FromRowStore(MakeItems(50));
  for (size_t par : {1u, 2u, 8u}) {
    auto plan = QueryBuilder(items)
                    .GroupByAgg({"shipmode"}, {Agg::Min("qty"),
                                               Agg::Avg("qty")})
                    .Limit(0)
                    .Build();
    ASSERT_TRUE(plan.ok());
    QueryResult r = RunPlan(*plan, par);
    EXPECT_EQ(r.num_rows(), 0u);
    ASSERT_EQ(r.num_columns(), 3u);
    EXPECT_EQ(r.columns[0].type, PhysType::kStr);
    EXPECT_EQ(r.columns[1].type, PhysType::kU32);
    EXPECT_EQ(r.columns[2].type, PhysType::kF64);
  }
}

// --- satellite regression: aggregate overflow --------------------------------

TEST(GroupAggTableTest, CapacityHintMakesGrowthRehashFree) {
  // With a hint covering the final group count, growth must never rebuild
  // the bucket array; the hint-less table (1024 buckets, 4x-load rehash)
  // must rehash on the same input — and both must agree on the result.
  constexpr size_t kGroups = 20000;
  DirectMemory mem;
  GroupAggTable<DirectMemory> hinted(/*key_width=*/1, /*num_values=*/1,
                                     kGroups);
  GroupAggTable<DirectMemory> unhinted(/*key_width=*/1, /*num_values=*/1);
  for (uint32_t rep = 0; rep < 2; ++rep) {
    for (uint32_t g = 0; g < kGroups; ++g) {
      uint32_t key = g;
      uint32_t value = g % 97;
      hinted.Add(&key, &value, mem);
      unhinted.Add(&key, &value, mem);
    }
  }
  EXPECT_EQ(hinted.num_groups(), kGroups);
  EXPECT_EQ(unhinted.num_groups(), kGroups);
  EXPECT_EQ(hinted.rehash_count(), 0u);
  EXPECT_GT(unhinted.rehash_count(), 0u);
  for (size_t g = 0; g < kGroups; ++g) {
    ASSERT_EQ(hinted.key(g, 0), unhinted.key(g, 0));
    ASSERT_EQ(hinted.group_rows(g), unhinted.group_rows(g));
    ASSERT_EQ(hinted.state(g, 0).sum, unhinted.state(g, 0).sum);
  }
  // An 8x-low hint still overflows into a rehash — the hint is a sizing
  // contract, not a cap.
  GroupAggTable<DirectMemory> low_hint(1, 1, kGroups / 64);
  for (uint32_t g = 0; g < kGroups; ++g) {
    uint32_t key = g, value = 1;
    low_hint.Add(&key, &value, mem);
  }
  EXPECT_EQ(low_hint.num_groups(), kGroups);
  EXPECT_GT(low_hint.rehash_count(), 0u);
}

TEST(GroupAggTableTest, AddColumnsEqualsPerRowAdd) {
  // The columnar bulk path must be the per-row path, block boundaries and
  // growth included: same group order, keys, rows, (sum, min, max) and
  // rehash_count() for key widths 1-3, 0-2 value columns, sizes around the
  // 1024-row block, hints of 0 / exact / 8x low, keys equal to UINT32_MAX,
  // and a single group.
  Rng rng(1717);
  DirectMemory mem;
  bool saw_rehash = false;
  for (size_t kw = 1; kw <= 3; ++kw) {
    for (size_t nv = 0; nv <= 2; ++nv) {
      for (size_t n : {0, 1, 1023, 1024, 1025, 5000}) {
        for (bool single_group : {false, true}) {
          std::vector<std::vector<uint32_t>> keys(kw, std::vector<uint32_t>(n));
          std::vector<std::vector<uint32_t>> vals(nv, std::vector<uint32_t>(n));
          for (size_t i = 0; i < n; ++i) {
            for (size_t c = 0; c < kw; ++c) {
              // Small per-column domains make many multi-word groups; 1 in 8
              // key words is UINT32_MAX (the slot marker's value).
              uint32_t k = static_cast<uint32_t>(rng.NextBelow(24));
              keys[c][i] = single_group ? UINT32_MAX
                           : k < 3      ? UINT32_MAX
                                        : k;
            }
            for (size_t v = 0; v < nv; ++v) {
              vals[v][i] = rng.NextBelow(4) == 0
                               ? UINT32_MAX
                               : static_cast<uint32_t>(rng.NextU64());
            }
          }
          std::vector<const uint32_t*> key_cols, val_cols;
          for (const auto& k : keys) key_cols.push_back(k.data());
          for (const auto& v : vals) val_cols.push_back(v.data());

          // Count the groups once to derive the exact and 8x-low hints.
          GroupAggTable<DirectMemory> probe(kw, nv);
          probe.AddColumns(key_cols, val_cols, 0, n, mem);
          const size_t groups = probe.num_groups();
          for (size_t hint : {size_t{0}, groups, groups / 8}) {
            SCOPED_TRACE(testing::Message()
                         << "kw=" << kw << " nv=" << nv << " n=" << n
                         << " single=" << single_group << " hint=" << hint);
            GroupAggTable<DirectMemory> rowwise(kw, nv, hint);
            std::vector<uint32_t> kbuf(kw), vbuf(nv);
            for (size_t i = 0; i < n; ++i) {
              for (size_t c = 0; c < kw; ++c) kbuf[c] = keys[c][i];
              for (size_t v = 0; v < nv; ++v) vbuf[v] = vals[v][i];
              rowwise.Add(kbuf.data(), vbuf.data(), mem);
            }
            // Two calls split off the block grid, as a shard boundary does.
            GroupAggTable<DirectMemory> columnar(kw, nv, hint);
            const size_t mid = n / 3;
            columnar.AddColumns(key_cols, val_cols, 0, mid, mem);
            columnar.AddColumns(key_cols, val_cols, mid, n, mem);

            ASSERT_EQ(columnar.num_groups(), rowwise.num_groups());
            EXPECT_EQ(columnar.rehash_count(), rowwise.rehash_count());
            saw_rehash = saw_rehash || rowwise.rehash_count() > 0;
            if (hint >= groups) {
              EXPECT_EQ(columnar.rehash_count(), 0u);
            }
            if (single_group) {
              EXPECT_EQ(columnar.num_groups(), n > 0 ? 1u : 0u);
            }
            for (size_t g = 0; g < rowwise.num_groups(); ++g) {
              for (size_t c = 0; c < kw; ++c) {
                ASSERT_EQ(columnar.key(g, c), rowwise.key(g, c));
              }
              ASSERT_EQ(columnar.group_rows(g), rowwise.group_rows(g));
              for (size_t v = 0; v < nv; ++v) {
                ASSERT_EQ(columnar.state(g, v).sum, rowwise.state(g, v).sum);
                ASSERT_EQ(columnar.state(g, v).min, rowwise.state(g, v).min);
                ASSERT_EQ(columnar.state(g, v).max, rowwise.state(g, v).max);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_rehash);  // growth happened mid-stream somewhere
}

// Multiplying every key word by this odd constant is a bijection on u32, so
// it keeps the groups but spreads dense keys over the u32 range, where the
// table takes the hashed form.
constexpr uint32_t kSpread = 2654435761u;

// Key and value columns, column-wise.
struct KeyRows {
  std::vector<std::vector<uint32_t>> keys, vals;
};

// The hashed reference: row-wise Add over rows [lo, hi) with every key word
// multiplied by kSpread.
template <class Table>
void AddSpreadRows(const KeyRows& rows, size_t lo, size_t hi, Table& t) {
  DirectMemory mem;
  std::vector<uint32_t> k(rows.keys.size()), v(rows.vals.size());
  for (size_t i = lo; i < hi; ++i) {
    for (size_t c = 0; c < k.size(); ++c) k[c] = rows.keys[c][i] * kSpread;
    for (size_t x = 0; x < v.size(); ++x) v[x] = rows.vals[x][i];
    t.Add(k.data(), v.data(), mem);
  }
}

// Rows [lo, hi) through AddColumns, split in two calls off the block grid
// unless `split` is false.
template <class Mem>
void AddRowColumns(const KeyRows& rows, size_t lo, size_t hi,
                   GroupAggTable<Mem>& t, Mem& mem, bool split = true) {
  std::vector<const uint32_t*> kc, vc;
  for (const auto& k : rows.keys) kc.push_back(k.data());
  for (const auto& v : rows.vals) vc.push_back(v.data());
  const size_t mid = split ? lo + (hi - lo) / 3 : lo;
  t.AddColumns(kc, vc, lo, mid, mem);
  t.AddColumns(kc, vc, mid, hi, mem);
}

// Same group order, keys (times `scale`), rows, states and rehash_count().
template <class A, class B>
void ExpectSameGroups(const A& got, const B& want, uint32_t scale) {
  ASSERT_EQ(got.num_groups(), want.num_groups());
  EXPECT_EQ(got.rehash_count(), want.rehash_count());
  for (size_t g = 0; g < want.num_groups(); ++g) {
    for (size_t c = 0; c < want.key_width(); ++c) {
      ASSERT_EQ(got.key(g, c) * scale, want.key(g, c)) << g;
    }
    ASSERT_EQ(got.group_rows(g), want.group_rows(g)) << g;
    for (size_t v = 0; v < want.num_values(); ++v) {
      ASSERT_EQ(got.state(g, v).sum, want.state(g, v).sum) << g;
      ASSERT_EQ(got.state(g, v).min, want.state(g, v).min) << g;
      ASSERT_EQ(got.state(g, v).max, want.state(g, v).max) << g;
    }
  }
}

TEST(GroupAggTableTest, DirectIndexEqualsHashedReference) {
  // The direct form (a key's slot is its offset in the keys' bounding box)
  // must be invisible: for key widths 1-3 and boxes that fit from the
  // first block, widen across blocks and a mid-stream AddColumns split,
  // outgrow the slot array, fit only after a Grow, or span 0..UINT32_MAX,
  // the table equals a row-wise Add over the keys times kSpread (hashed),
  // row-wise Add on the dense keys takes the same one-row path, and
  // SimulatedMemory equals DirectMemory.
  constexpr size_t kN = 5000;
  enum Shape { kFits, kWidens, kOutgrows, kFitsAfterGrow, kFullRange };
  for (size_t kw = 1; kw <= 3; ++kw) {
    for (Shape shape : {kFits, kWidens, kOutgrows, kFitsAfterGrow,
                        kFullRange}) {
      SCOPED_TRACE(testing::Message() << "kw=" << kw << " shape=" << shape);
      // Per-column domains of about 200 cells (fits 512 slots) and 1000
      // cells (fits only 1024).
      const std::vector<std::vector<uint32_t>> small = {
          {200}, {15, 12}, {6, 5, 4}};
      const std::vector<std::vector<uint32_t>> large = {
          {1000}, {40, 25}, {10, 10, 10}};
      const std::vector<uint32_t>& domain =
          shape == kFitsAfterGrow ? large[kw - 1] : small[kw - 1];
      Rng rng(100 * kw + shape);
      KeyRows rows{std::vector<std::vector<uint32_t>>(
                       kw, std::vector<uint32_t>(kN)),
                   {std::vector<uint32_t>(kN)}};
      for (size_t i = 0; i < kN; ++i) {
        for (size_t c = 0; c < kw; ++c) {
          uint32_t k = static_cast<uint32_t>(rng.NextBelow(domain[c]));
          if (shape == kWidens) {
            // Column 0 grows down from UINT32_MAX to 300 values, column 1
            // up from 0 and column 2 up from 10^9 to 9 values each, over
            // all of the rows: at most 301 x 9 x 9 cells.
            const uint32_t w = static_cast<uint32_t>(
                rng.NextBelow(1 + i * (c == 0 ? 300 : 8) / kN));
            k = c == 0 ? UINT32_MAX - w : c == 1 ? w : 1000000000u + w;
          } else if (shape == kOutgrows && c == 0 && i >= kN / 2 &&
                     i % 7 == 0) {
            k += 1u << 20;
          } else if (shape == kFullRange && c == 0) {
            const uint32_t ends[] = {0, 1, UINT32_MAX - 1, UINT32_MAX};
            k = ends[rng.NextBelow(4)];
          }
          rows.keys[c][i] = k;
        }
        rows.vals[0][i] = rng.NextBelow(4) == 0
                              ? UINT32_MAX
                              : static_cast<uint32_t>(rng.NextU64());
      }
      const size_t hint = shape == kWidens ? size_t{1} << 14 : 0;

      GroupAggTable<DirectMemory> ref(kw, 1, hint);
      AddSpreadRows(rows, 0, kN, ref);
      EXPECT_FALSE(ref.is_direct());

      DirectMemory mem;
      GroupAggTable<DirectMemory> columnar(kw, 1, hint);
      if (shape == kFitsAfterGrow) {
        // The first block's box (~1000 cells) outgrows 512 slots; the
        // doubling inside it makes room, taken at the next block.
        AddRowColumns(rows, 0, 1024, columnar, mem, /*split=*/false);
        EXPECT_FALSE(columnar.is_direct());
        EXPECT_GT(columnar.rehash_count(), 0u);
        AddRowColumns(rows, 1024, kN, columnar, mem);
      } else {
        AddRowColumns(rows, 0, kN, columnar, mem);
      }
      const bool direct = shape != kOutgrows && shape != kFullRange;
      EXPECT_EQ(columnar.is_direct(), direct);
      ExpectSameGroups(columnar, ref, kSpread);

      GroupAggTable<DirectMemory> rowwise(kw, 1, hint);
      std::vector<uint32_t> k(kw);
      for (size_t i = 0; i < kN; ++i) {
        for (size_t c = 0; c < kw; ++c) k[c] = rows.keys[c][i];
        rowwise.Add(k.data(), &rows.vals[0][i], mem);
      }
      EXPECT_EQ(rowwise.is_direct(), direct);
      ExpectSameGroups(rowwise, ref, kSpread);

      MemoryHierarchy h(MachineProfile::GenericX86());
      SimulatedMemory sim(&h);
      GroupAggTable<SimulatedMemory> simulated(kw, 1, hint);
      AddRowColumns(rows, 0, kN, simulated, sim);
      EXPECT_EQ(simulated.is_direct(), direct);
      ExpectSameGroups(simulated, columnar, 1);
    }
  }
}

TEST(GroupAggTableTest, MergeBetweenDirectAndHashedForms) {
  // MergeFrom is the one-row path over the other table's groups: a direct
  // table merges into a hashed one, and hashed ones merge into a direct
  // one that either stays direct (their keys fit its box) or switches to
  // the hashed form mid-merge (they do not). Each result equals the same
  // merge of hashed references.
  constexpr size_t kN = 3000;
  const std::vector<std::vector<uint32_t>> domains = {
      {1000}, {40, 25}, {10, 10, 10}};
  for (size_t kw = 1; kw <= 3; ++kw) {
    SCOPED_TRACE(testing::Message() << "kw=" << kw);
    Rng rng(kw);
    KeyRows rows{std::vector<std::vector<uint32_t>>(
                     kw, std::vector<uint32_t>(kN)),
                 {std::vector<uint32_t>(kN)}};
    for (size_t i = 0; i < kN; ++i) {
      for (size_t c = 0; c < kw; ++c) {
        rows.keys[c][i] = static_cast<uint32_t>(rng.NextBelow(domains[kw - 1][c]));
      }
      rows.vals[0][i] = static_cast<uint32_t>(rng.NextU64());
    }
    // Rows [2000, 3000) hold far keys in column 0: their box never fits.
    KeyRows far = rows;
    for (size_t i = 2000; i < kN; ++i) far.keys[0][i] += (i % 3) << 24;
    DirectMemory mem;
    // direct: rows [1024, 2000), 2048 slots. dense_hashed: rows [0, 1024),
    // whose ~1000-cell box outgrew its first 512 slots. far_hashed: rows
    // [2000, 3000) of `far`.
    GroupAggTable<DirectMemory> direct(kw, 1, 1024), dense_hashed(kw, 1),
        far_hashed(kw, 1);
    GroupAggTable<DirectMemory> ref_direct(kw, 1, 1024), ref_dense(kw, 1),
        ref_far(kw, 1);
    AddRowColumns(rows, 1024, 2000, direct, mem);
    AddRowColumns(rows, 0, 1024, dense_hashed, mem, /*split=*/false);
    AddRowColumns(far, 2000, kN, far_hashed, mem);
    AddSpreadRows(rows, 1024, 2000, ref_direct);
    AddSpreadRows(rows, 0, 1024, ref_dense);
    AddSpreadRows(far, 2000, kN, ref_far);
    ASSERT_TRUE(direct.is_direct());
    ASSERT_FALSE(dense_hashed.is_direct());
    ASSERT_FALSE(far_hashed.is_direct());

    // Direct into hashed.
    GroupAggTable<DirectMemory> into_hashed = far_hashed;
    GroupAggTable<DirectMemory> ref_into_hashed = ref_far;
    into_hashed.MergeFrom(direct, mem);
    ref_into_hashed.MergeFrom(ref_direct, mem);
    EXPECT_FALSE(into_hashed.is_direct());
    ExpectSameGroups(into_hashed, ref_into_hashed, kSpread);

    // Hashed into direct: the dense keys fit the 2048 slots.
    GroupAggTable<DirectMemory> stays = direct;
    GroupAggTable<DirectMemory> ref_stays = ref_direct;
    stays.MergeFrom(dense_hashed, mem);
    ref_stays.MergeFrom(ref_dense, mem);
    EXPECT_TRUE(stays.is_direct());
    ExpectSameGroups(stays, ref_stays, kSpread);

    // Then the far keys: the box outgrows the slots mid-merge.
    stays.MergeFrom(far_hashed, mem);
    ref_stays.MergeFrom(ref_far, mem);
    EXPECT_FALSE(stays.is_direct());
    ExpectSameGroups(stays, ref_stays, kSpread);
  }
}

TEST(AggregateOverflowTest, CheckedNarrowingSurfacesOutOfRange) {
  constexpr uint64_t kMax = static_cast<uint64_t>(
      std::numeric_limits<int64_t>::max());
  auto ok = CheckedI64(kMax);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(CheckedI64(kMax + 1).status().code(), StatusCode::kOutOfRange);
}

TEST(AggregateOverflowTest, MergedPartialsPastInt64MaxAreDetected) {
  // Two shard partials whose merged sum exceeds INT64_MAX — exactly the
  // state GroupByAggOp narrows to the i64 "sum" column. The pre-fix code
  // wrapped this into a negative sum.
  constexpr uint64_t kMax = static_cast<uint64_t>(
      std::numeric_limits<int64_t>::max());
  DirectMemory mem;
  GroupAggTable<DirectMemory> a(/*key_width=*/2, /*num_values=*/1);
  GroupAggTable<DirectMemory> b(/*key_width=*/2, /*num_values=*/1);
  const uint32_t key[2] = {7, 9};
  GroupAggState sa{/*sum=*/kMax - 10, /*min=*/3, /*max=*/80};
  GroupAggState sb{/*sum=*/100, /*min=*/1, /*max=*/40};
  a.AccumulateGroup(key, /*rows=*/1000, &sa, mem);
  b.AccumulateGroup(key, /*rows=*/5, &sb, mem);
  a.MergeFrom(b, mem);
  ASSERT_EQ(a.num_groups(), 1u);
  EXPECT_EQ(a.group_rows(0), 1005u);
  EXPECT_EQ(a.state(0, 0).min, 1u);
  EXPECT_EQ(a.state(0, 0).max, 80u);
  EXPECT_EQ(CheckedI64(a.state(0, 0).sum).status().code(),
            StatusCode::kOutOfRange);
}

// --- multi-key group-by vs oracle --------------------------------------------

struct OracleAgg {
  uint64_t sum = 0, count = 0;
  uint32_t min = UINT32_MAX, max = 0;
};

TEST(GroupByAggExecTest, MultiKeyMinMaxAvgMatchesOracle) {
  constexpr size_t kN = 20000;
  Table items = *Table::FromRowStore(MakeItems(kN));
  auto plan = QueryBuilder(items)
                  .GroupByAgg({"order", "shipmode"},
                              {Agg::Sum("qty"), Agg::Min("qty"),
                               Agg::Max("qty"), Agg::Avg("qty"),
                               Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::map<std::pair<uint32_t, std::string>, OracleAgg> oracle;
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < kN; ++i) {
    OracleAgg& o = oracle[{static_cast<uint32_t>(i / 3), modes[i % 4]}];
    uint32_t v = static_cast<uint32_t>(1 + i % 5);
    o.sum += v;
    o.count += 1;
    o.min = std::min(o.min, v);
    o.max = std::max(o.max, v);
  }

  for (size_t par : {1u, 2u, 8u}) {
    QueryResult r = RunPlan(*plan, par);
    ASSERT_EQ(r.num_rows(), oracle.size()) << par;
    for (size_t g = 0; g < r.num_rows(); ++g) {
      std::pair<uint32_t, std::string> key = {
          r.columns[0].u32_values[g], r.columns[1].str_values[g]};
      ASSERT_TRUE(oracle.count(key)) << key.first << "/" << key.second;
      const OracleAgg& o = oracle[key];
      EXPECT_EQ(static_cast<uint64_t>(r.columns[2].i64_values[g]), o.sum);
      EXPECT_EQ(r.columns[3].u32_values[g], o.min);
      EXPECT_EQ(r.columns[4].u32_values[g], o.max);
      EXPECT_DOUBLE_EQ(r.columns[5].f64_values[g],
                       static_cast<double>(o.sum) /
                           static_cast<double>(o.count));
      EXPECT_EQ(static_cast<uint64_t>(r.columns[6].i64_values[g]), o.count);
    }
  }
}

TEST(GroupByAggExecTest, EncodedAndSmallKeysMatchRowReferenceAtAnyParallelism) {
  // Small dense key domains (dictionary codes, small attributes) are the
  // direct form's case: one encoded-string key plus two small u32 keys.
  // Parallelism 1 emits the row-at-a-time reference in first-appearance
  // order; 2 and 8 emit the same groups and aggregates in some order.
  constexpr size_t kN = 30000;
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP", "RAIL", "FOB"};
  auto rs = RowStore::Make({{"mode", FieldType::kChar10},
                            {"a", FieldType::kU32},
                            {"b", FieldType::kU32},
                            {"qty", FieldType::kU32}},
                           kN);
  ASSERT_TRUE(rs.ok());
  Rng rng(28);
  using Key = std::tuple<std::string, uint32_t, uint32_t>;
  std::vector<Key> order;  // first appearance
  std::map<Key, OracleAgg> oracle;
  for (size_t i = 0; i < kN; ++i) {
    const char* m = modes[rng.NextBelow(6)];
    const uint32_t a = static_cast<uint32_t>(rng.NextBelow(12));
    const uint32_t b = 100 + static_cast<uint32_t>(rng.NextBelow(7));
    const uint32_t qty = static_cast<uint32_t>(rng.NextBelow(1000));
    const size_t r = *rs->AppendRow();
    rs->SetBytes(r, 0, m, strlen(m));
    rs->SetU32(r, 1, a);
    rs->SetU32(r, 2, b);
    rs->SetU32(r, 3, qty);
    const Key key{m, a, b};
    if (!oracle.count(key)) order.push_back(key);
    OracleAgg& o = oracle[key];
    o.sum += qty;
    o.count += 1;
    o.min = std::min(o.min, qty);
    o.max = std::max(o.max, qty);
  }
  Table t = *Table::FromRowStore(*rs);
  ASSERT_TRUE(t.is_encoded(0));
  auto plan = QueryBuilder(t)
                  .GroupByAgg({"mode", "a", "b"},
                              {Agg::Sum("qty"), Agg::Min("qty"),
                               Agg::Max("qty"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Each result's rows as (key, aggregates), in emission order.
  using Row = std::tuple<Key, int64_t, uint32_t, uint32_t, int64_t>;
  auto rows_of = [](const QueryResult& r) {
    std::vector<Row> out;
    for (size_t g = 0; g < r.num_rows(); ++g) {
      out.emplace_back(Key{r.columns[0].str_values[g],
                           r.columns[1].u32_values[g],
                           r.columns[2].u32_values[g]},
                       r.columns[3].i64_values[g], r.columns[4].u32_values[g],
                       r.columns[5].u32_values[g], r.columns[6].i64_values[g]);
    }
    return out;
  };
  std::vector<Row> reference;
  for (const Key& key : order) {
    const OracleAgg& o = oracle[key];
    reference.emplace_back(key, static_cast<int64_t>(o.sum), o.min, o.max,
                           static_cast<int64_t>(o.count));
  }
  const std::vector<Row> serial = rows_of(RunPlan(*plan, 1));
  EXPECT_EQ(serial, reference);
  std::sort(reference.begin(), reference.end());
  for (size_t par : {2u, 8u}) {
    std::vector<Row> got = rows_of(RunPlan(*plan, par));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, reference) << par;
  }
}

TEST(GroupByAggExecTest, SumCountSchemaUnchanged) {
  // Sum + count over one group column: the output schema and values must
  // be exactly the historical [group, sum, count].
  Table items = *Table::FromRowStore(MakeItems(300));
  auto plan = QueryBuilder(items)
                  .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok());
  QueryResult r = RunPlan(*plan, 1);
  ASSERT_EQ(r.num_columns(), 3u);
  EXPECT_EQ(r.columns[0].name, "shipmode");
  EXPECT_EQ(r.columns[1].name, "sum");
  EXPECT_EQ(r.columns[2].name, "count");
  ASSERT_EQ(r.num_rows(), 4u);
  int64_t total = 0;
  for (size_t g = 0; g < 4; ++g) total += r.columns[2].i64_values[g];
  EXPECT_EQ(total, 300);
}

// --- conjunctive selects -----------------------------------------------------

TEST(ConjunctiveSelectTest, FusedPassEqualsChainedSelects) {
  constexpr size_t kN = 30000;
  Table items = *Table::FromRowStore(MakeItems(kN));
  auto fused = QueryBuilder(items)
                   .Filter(Between(Col("qty"), 2u, 4u) &&
                           Col("shipmode") == "MAIL" &&
                           Between(Col("price"), 20.0, 80.0))
                   .Project({"order", "qty", "price"})
                   .Build();
  ASSERT_TRUE(fused.ok());
  auto chained = QueryBuilder(items)
                     .Filter(Between(Col("qty"), 2u, 4u))
                     .Filter(Col("shipmode") == "MAIL")
                     .Filter(Between(Col("price"), 20.0, 80.0))
                     .Project({"order", "qty", "price"})
                     .Build();
  ASSERT_TRUE(chained.ok());
  QueryResult expect = RunPlan(*chained, 1);
  ASSERT_GT(expect.num_rows(), 0u);
  // Row-at-a-time oracle.
  size_t oracle_rows = 0;
  for (size_t i = 0; i < kN; ++i) {
    uint32_t qty = static_cast<uint32_t>(1 + i % 5);
    double price = 10.0 + static_cast<double>(i % 97);
    if (qty >= 2 && qty <= 4 && i % 4 == 0 && price >= 20.0 && price <= 80.0) {
      ++oracle_rows;
    }
  }
  EXPECT_EQ(expect.num_rows(), oracle_rows);
  for (size_t par : {1u, 2u, 8u}) {
    ExpectSameResult(RunPlan(*fused, par), expect,
                     "fused conjunction, parallelism " +
                         std::to_string(par));
  }
}

TEST(ConjunctiveSelectTest, NonEncodedStringConjunctUsesFallback) {
  // With auto_encode off the shipmode column stays a raw string BAT: the
  // string-equality conjunct cannot use the code-range kernel and must fall
  // back to the candidate-bounded gather path.
  RowStore rows = MakeItems(5000);
  Table raw = *Table::FromRowStore(rows, /*auto_encode=*/false);
  Table encoded = *Table::FromRowStore(rows);
  auto build = [](const Table& t) {
    auto plan = QueryBuilder(t)
                    .Filter(Between(Col("qty"), 1u, 3u) &&
                            Col("shipmode") == "TRUCK")
                    .Project({"order", "qty"})
                    .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };
  auto raw_plan = build(raw);
  auto enc_plan = build(encoded);
  QueryResult expect = RunPlan(enc_plan, 1);
  ASSERT_GT(expect.num_rows(), 0u);
  for (size_t par : {1u, 2u, 8u}) {
    ExpectSameResult(RunPlan(raw_plan, par), expect,
                     "non-encoded fallback, parallelism " +
                         std::to_string(par));
  }
}

TEST(ConjunctiveSelectTest, EqStrOnNonEncodedColumnStandalone) {
  // Single-predicate select through the gather fallback (first pass, not
  // just the narrowing pass).
  RowStore rows = MakeItems(4000);
  Table raw = *Table::FromRowStore(rows, /*auto_encode=*/false);
  auto plan = QueryBuilder(raw)
                  .Filter(Col("shipmode") == "AIR")
                  .Project({"order"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  for (size_t par : {1u, 2u, 8u}) {
    QueryResult r = RunPlan(*plan, par);
    EXPECT_EQ(r.num_rows(), 1000u) << par;  // i % 4 == 1
  }
}

TEST(ConjunctiveSelectTest, NaNValuesAndBoundsNeverMatch) {
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
  for (size_t par : {1u, 2u, 8u}) {
    // NaN values fail every range predicate.
    auto values = QueryBuilder(t)
                      .Filter(Between(Col("x"), 0.0, 1000.0))
                      .Build();
    ASSERT_TRUE(values.ok());
    EXPECT_EQ(RunPlan(*values, par).num_rows(), 48u) << par;
    // NaN bounds select nothing.
    auto bounds = QueryBuilder(t)
                      .Filter(Between(Col("x"), nan, nan))
                      .Build();
    ASSERT_TRUE(bounds.ok());
    EXPECT_EQ(RunPlan(*bounds, par).num_rows(), 0u) << par;
    // Same through the fused narrowing pass.
    auto conj = QueryBuilder(t)
                    .Filter(Between(Col("k"), 0u, 63u) &&
                            Between(Col("x"), 0.0, 1000.0))
                    .Build();
    ASSERT_TRUE(conj.ok());
    EXPECT_EQ(RunPlan(*conj, par).num_rows(), 48u) << par;
  }
}

// --- order by ----------------------------------------------------------------

TEST(OrderByTest, NaNKeysSortLastStablyAtAnyParallelism) {
  // IEEE `<` is no strict weak order once NaN is present. OrderBy must put
  // NaN after every number (first when descending), keep equal keys in
  // input order, and emit the same bytes at every parallelism.
  constexpr size_t kN = 1 << 16;
  auto rs = RowStore::Make({{"id", FieldType::kU32}, {"x", FieldType::kF64}},
                           kN);
  ASSERT_TRUE(rs.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    // 1/16 NaN; the rest repeat 1000 values, so ties are common.
    rs->SetF64(r, 1,
               i % 16 == 0 ? nan : static_cast<double>((i * 7919) % 1000));
  }
  Table t = *Table::FromRowStore(*rs);
  for (bool desc : {false, true}) {
    auto plan = QueryBuilder(t).OrderBy("x", desc).Build();
    ASSERT_TRUE(plan.ok());
    QueryResult serial = RunPlan(*plan, 1);
    const std::vector<uint32_t>& id = serial.columns[0].u32_values;
    const std::vector<double>& x = serial.columns[1].f64_values;
    ASSERT_EQ(x.size(), kN);
    // Rank of row i in the expected order: numbers by value (negated when
    // descending), NaN after them (before them when descending).
    auto rank = [&](size_t i) {
      if (std::isnan(x[i])) return desc ? -2000.0 : 2000.0;
      return desc ? -x[i] : x[i];
    };
    for (size_t i = 1; i < kN; ++i) {
      ASSERT_LE(rank(i - 1), rank(i)) << "row " << i << " desc " << desc;
      if (rank(i - 1) == rank(i)) {
        ASSERT_LT(id[i - 1], id[i]) << "unstable at row " << i;
      }
    }
    EXPECT_EQ(std::isnan(x[0]), desc);
    for (size_t par : {2u, 8u}) {
      QueryResult r = RunPlan(*plan, par);
      EXPECT_EQ(r.columns[0].u32_values, id) << par << " desc " << desc;
      ASSERT_EQ(r.columns[1].f64_values.size(), kN);
      EXPECT_EQ(std::memcmp(r.columns[1].f64_values.data(), x.data(),
                            kN * sizeof(double)),
                0)
          << par << " desc " << desc;
    }
  }
}

// --- join types vs oracle ----------------------------------------------------

// left(k, tag) x right(id, payload, label): id values {2, 3, 3, 5} so k=3
// matches twice, k=0 and k=7 not at all.
struct JoinFixture {
  Table left, right;

  JoinFixture()
      : left(MakeLeft()), right(MakeRight()) {}

  static Table MakeLeft() {
    auto rs = RowStore::Make(
        {{"k", FieldType::kU32}, {"tag", FieldType::kU32}}, 8);
    CCDB_CHECK(rs.ok());
    const uint32_t ks[] = {0, 2, 3, 7, 3};
    for (size_t i = 0; i < 5; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetU32(r, 0, ks[i]);
      rs->SetU32(r, 1, static_cast<uint32_t>(100 + i));
    }
    return *Table::FromRowStore(*rs);
  }
  static Table MakeRight() {
    auto rs = RowStore::Make({{"id", FieldType::kU32},
                              {"payload", FieldType::kU32},
                              {"label", FieldType::kChar10}},
                             8);
    CCDB_CHECK(rs.ok());
    const uint32_t ids[] = {2, 3, 3, 5};
    const uint32_t pays[] = {20, 30, 31, 50};
    const char* labels[] = {"two", "three", "three2", "five"};
    for (size_t i = 0; i < 4; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetU32(r, 0, ids[i]);
      rs->SetU32(r, 1, pays[i]);
      rs->SetBytes(r, 2, labels[i], strlen(labels[i]));
    }
    return *Table::FromRowStore(*rs);
  }
};

TEST(JoinTypeTest, SemiAndAntiKeepProbeOrder) {
  JoinFixture f;
  for (size_t par : {1u, 2u, 8u}) {
    auto semi = QueryBuilder(f.left)
                    .Join(f.right, "k", "id", JoinType::kSemi)
                    .Build();
    ASSERT_TRUE(semi.ok());
    QueryResult rs = RunPlan(*semi, par);
    ASSERT_EQ(rs.num_columns(), 2u);  // left columns only
    EXPECT_EQ(rs.columns[0].u32_values, (std::vector<uint32_t>{2, 3, 3}));
    EXPECT_EQ(rs.columns[1].u32_values,
              (std::vector<uint32_t>{101, 102, 104}));

    auto anti = QueryBuilder(f.left)
                    .Join(f.right, "k", "id", JoinType::kAnti)
                    .Build();
    ASSERT_TRUE(anti.ok());
    QueryResult ra = RunPlan(*anti, par);
    EXPECT_EQ(ra.columns[0].u32_values, (std::vector<uint32_t>{0, 7}));
    EXPECT_EQ(ra.columns[1].u32_values, (std::vector<uint32_t>{100, 103}));
  }
}

TEST(JoinTypeTest, LeftOuterInterleavesNullsInProbeOrder) {
  JoinFixture f;
  for (size_t par : {1u, 2u, 8u}) {
    auto plan = QueryBuilder(f.left)
                    .Join(f.right, "k", "id", JoinType::kLeftOuter)
                    .Build();
    ASSERT_TRUE(plan.ok());
    QueryResult r = RunPlan(*plan, par);
    ASSERT_EQ(r.num_columns(), 5u);
    // Probe order with matches expanded in place: k=0 (null), k=2, k=3 (x2),
    // k=7 (null), k=3 (x2).
    EXPECT_EQ(r.columns[0].u32_values,
              (std::vector<uint32_t>{0, 2, 3, 3, 7, 3, 3}));
    EXPECT_EQ(r.columns[2].u32_values,  // id: null surrogate 0
              (std::vector<uint32_t>{0, 2, 3, 3, 0, 3, 3}));
    EXPECT_EQ(r.columns[3].u32_values,  // payload
              (std::vector<uint32_t>{0, 20, 30, 31, 0, 30, 31}));
    EXPECT_EQ(r.columns[4].str_values,  // label: null surrogate ""
              (std::vector<std::string>{"", "two", "three", "three2", "",
                                        "three", "three2"}));
  }
}

TEST(JoinTypeTest, LeftOuterAgainstEmptyInnerNullExtendsEverything) {
  JoinFixture f;
  for (size_t par : {1u, 2u, 8u}) {
    QueryBuilder inner(f.right);
    inner.Filter(Between(Col("id"), 1000u, 2000u));  // empty
    auto plan = QueryBuilder(f.left)
                    .Join(std::move(inner), "k", "id", JoinType::kLeftOuter)
                    .Build();
    ASSERT_TRUE(plan.ok());
    QueryResult r = RunPlan(*plan, par);
    ASSERT_EQ(r.num_rows(), 5u);
    EXPECT_EQ(r.columns[3].u32_values,
              (std::vector<uint32_t>{0, 0, 0, 0, 0}));
    EXPECT_EQ(r.columns[4].str_values,
              (std::vector<std::string>{"", "", "", "", ""}));
  }
}

TEST(JoinTypeTest, InnerJoinUnchangedByTypeParameter) {
  JoinFixture f;
  auto implicit = QueryBuilder(f.left).Join(f.right, "k", "id").Build();
  auto explicit_inner = QueryBuilder(f.left)
                            .Join(f.right, "k", "id", JoinType::kInner)
                            .Build();
  ASSERT_TRUE(implicit.ok() && explicit_inner.ok());
  ExpectSameResult(RunPlan(*implicit, 1), RunPlan(*explicit_inner, 1), "inner");
  EXPECT_EQ(RunPlan(*implicit, 1).num_rows(), 5u);  // 1 + 2 + 2 matches
}

TEST(JoinTypeTest, TypedJoinsAtScaleMatchSerial) {
  // Larger-than-chunk probes exercise per-chunk match bookkeeping and the
  // prepared-once inner across all join types.
  constexpr size_t kItems = 30000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 6);  // order ids only half-covered
  for (JoinType t : {JoinType::kInner, JoinType::kLeftOuter, JoinType::kSemi,
                     JoinType::kAnti}) {
    auto build = [&]() {
      auto plan = QueryBuilder(items)
                      .Filter(Between(Col("qty"), 2u, 5u))
                      .Join(orders, "order", "order_id", t)
                      .Build();
      CCDB_CHECK(plan.ok());
      return *std::move(plan);
    };
    auto plan = build();
    QueryResult expect = RunPlan(plan, 1, /*chunk_rows=*/1024);
    ASSERT_GT(expect.num_rows(), 0u);
    for (size_t par : {2u, 8u}) {
      ExpectSameResult(RunPlan(plan, par, /*chunk_rows=*/1024), expect,
                       std::string("join type ") + JoinTypeName(t) +
                           " parallelism " + std::to_string(par));
    }
  }
}

// --- end-to-end: the new algebra is plannable and deterministic --------------

TEST(RichAlgebraEndToEndTest, ConjunctionOuterJoinMultiKeyAggPipeline) {
  constexpr size_t kItems = 24000;
  Table items = *Table::FromRowStore(MakeItems(kItems));
  Table orders = MakeOrders(kItems / 3 / 2);  // half the order ids match
  Table banned = TableFromU32("bad_order", {1, 5, 9, 13});

  auto build = [&]() {
    auto plan =
        QueryBuilder(items)
            .Filter(Between(Col("qty"), 1u, 4u) &&
                    Between(Col("price"), 12.0, 95.0))
            .Join(banned, "order", "bad_order", JoinType::kAnti)
            .Join(orders, "order", "order_id", JoinType::kLeftOuter)
            .GroupByAgg({"shipmode", "prio"},
                        {Agg::Sum("qty"), Agg::Min("qty"), Agg::Max("qty"),
                         Agg::Avg("qty"), Agg::Count()})
            .OrderBy("prio")
            .OrderBy("shipmode")
            .Build();
    CCDB_CHECK(plan.ok());
    return *std::move(plan);
  };

  auto plan = build();
  // The plan renders every new node kind.
  std::string s = plan.ToString();
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_NE(s.find("anti"), std::string::npos);
  EXPECT_NE(s.find("left_outer"), std::string::npos);
  EXPECT_NE(s.find("min(qty)"), std::string::npos);
  EXPECT_NE(s.find("shipmode, prio;"), std::string::npos);

  Planner planner;
  {
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = 2048;
    Planner p(opts);
    auto physical = p.Lower(plan);
    ASSERT_TRUE(physical.ok());
    auto result = physical->Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(physical->joins().size(), 2u);
    std::string explain = physical->ExplainJoins();
    EXPECT_NE(explain.find("[anti]"), std::string::npos);
    EXPECT_NE(explain.find("[left_outer]"), std::string::npos);
    EXPECT_NE(explain.find("inner clustered 1x"), std::string::npos);
  }

  // (shipmode, prio) is unique per output row and both are ordered, so the
  // whole result is order-pinned: parallel runs must be byte-identical.
  QueryResult expect = RunPlan(build(), 1, /*chunk_rows=*/2048);
  ASSERT_GT(expect.num_rows(), 0u);
  for (size_t par : {2u, 8u}) {
    ExpectSameResult(RunPlan(build(), par, /*chunk_rows=*/2048), expect,
                     "end-to-end parallelism " + std::to_string(par));
  }
}

TEST(RichAlgebraEndToEndTest, HavingStyleSelectOnAggregateOutput) {
  // Selects compose over owned aggregate columns (the gather fallback).
  Table items = *Table::FromRowStore(MakeItems(6000));
  auto plan = QueryBuilder(items)
                  .GroupByAgg({"order"}, {Agg::Min("qty"), Agg::Max("qty")})
                  .Filter(Between(Col("min"), 2u, 5u))
                  .OrderBy("order")
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  QueryResult expect = RunPlan(*plan, 1);
  for (size_t g = 0; g < expect.num_rows(); ++g) {
    EXPECT_GE(expect.columns[1].u32_values[g], 2u);
  }
  for (size_t par : {2u, 8u}) {
    ExpectSameResult(RunPlan(*plan, par), expect,
                     "having parallelism " + std::to_string(par));
  }
}

// --- empty inputs through every new operator ---------------------------------

TEST(RichAlgebraEmptyInputTest, EmptyTableThroughAllNewOperators) {
  Table empty = *Table::FromRowStore(MakeItems(0));
  Table orders = MakeOrders(5);
  for (size_t par : {1u, 2u, 8u}) {
    auto plan =
        QueryBuilder(empty)
            .Filter(Between(Col("qty"), 0u, 100u) &&
                    Col("shipmode") == "MAIL" &&
                    Between(Col("price"), 0.0, 1e9))
            .Join(orders, "order", "order_id", JoinType::kLeftOuter)
            .GroupByAgg({"shipmode", "prio"},
                        {Agg::Sum("qty"), Agg::Min("qty"), Agg::Avg("qty"),
                         Agg::Count()})
            .OrderBy("prio")
            .Limit(10)
            .Build();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    QueryResult r = RunPlan(*plan, par);
    EXPECT_EQ(r.num_rows(), 0u) << par;
    EXPECT_EQ(r.num_columns(), 6u) << par;

    for (JoinType t : {JoinType::kSemi, JoinType::kAnti}) {
      auto jplan = QueryBuilder(empty)
                       .Join(orders, "order", "order_id", t)
                       .Build();
      ASSERT_TRUE(jplan.ok());
      EXPECT_EQ(RunPlan(*jplan, par).num_rows(), 0u)
          << JoinTypeName(t) << " parallelism " << par;
    }

    // Empty inner for semi/anti: semi keeps nothing, anti keeps everything.
    Table items = *Table::FromRowStore(MakeItems(20));
    QueryBuilder empty_inner_semi(orders);
    empty_inner_semi.Filter(Between(Col("order_id"), 900u, 999u));
    auto semi = QueryBuilder(items)
                    .Join(std::move(empty_inner_semi), "order", "order_id",
                          JoinType::kSemi)
                    .Build();
    ASSERT_TRUE(semi.ok());
    EXPECT_EQ(RunPlan(*semi, par).num_rows(), 0u) << par;
    QueryBuilder empty_inner_anti(orders);
    empty_inner_anti.Filter(Between(Col("order_id"), 900u, 999u));
    auto anti = QueryBuilder(items)
                    .Join(std::move(empty_inner_anti), "order", "order_id",
                          JoinType::kAnti)
                    .Build();
    ASSERT_TRUE(anti.ok());
    EXPECT_EQ(RunPlan(*anti, par).num_rows(), 20u) << par;
  }
}

}  // namespace
}  // namespace ccdb
