// OLAP on the paper's "Item" table (Fig. 4).
//
// Demonstrates the storage side of the paper (§3.1):
//   * an ~90-byte NSM relational tuple vs vertical decomposition into BATs,
//   * virtual-OID (void) heads costing zero bytes,
//   * byte-encoding of the low-cardinality "shipmode" column (8 bytes -> 1),
//   * a drill-down query — selection on shipmode + grouped aggregation —
//     executed with predicate remap on the 1-byte code column,
//   * the NSM-vs-DSM scan-time gap that Figure 3 predicts.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "exec/plan.h"
#include "exec/table.h"
#include "model/planner.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ccdb;

namespace {

RowStore BuildItemTable(size_t n) {
  auto rs = RowStore::Make(
      {
          {"order", FieldType::kU32},   {"supp", FieldType::kU32},
          {"part", FieldType::kU32},    {"qty", FieldType::kU32},
          {"discnt", FieldType::kF64},  {"tax", FieldType::kF64},
          {"price", FieldType::kF64},   {"status", FieldType::kChar1},
          {"flag", FieldType::kChar1},  {"date1", FieldType::kU32},
          {"date2", FieldType::kU32},   {"date3", FieldType::kU32},
          {"shipmode", FieldType::kChar10},
          {"comment", FieldType::kChar27},
      },
      n);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP", "RAIL", "REG AIR",
                         "FOB"};
  Rng rng(1999);
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i / 4));
    rs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(100)));
    rs->SetU32(r, 2, static_cast<uint32_t>(rng.NextBelow(20000)));
    rs->SetU32(r, 3, static_cast<uint32_t>(1 + rng.NextBelow(50)));
    rs->SetF64(r, 4, 0.01 * static_cast<double>(rng.NextBelow(11)));
    rs->SetF64(r, 5, 0.01 * static_cast<double>(rng.NextBelow(9)));
    rs->SetF64(r, 6, static_cast<double>(rng.NextBelow(100000)) / 100);
    rs->SetU8(r, 7, "NOF"[rng.NextBelow(3)]);
    rs->SetU8(r, 8, 'Y');
    rs->SetU32(r, 9, static_cast<uint32_t>(19980101 + rng.NextBelow(700)));
    rs->SetU32(r, 10, static_cast<uint32_t>(19980101 + rng.NextBelow(700)));
    rs->SetU32(r, 11, static_cast<uint32_t>(19980101 + rng.NextBelow(700)));
    const char* m = modes[rng.NextBelow(7)];
    rs->SetBytes(r, 12, m, std::strlen(m));
    rs->SetBytes(r, 13, "auto-generated line item", 24);
  }
  return *std::move(rs);
}

}  // namespace

int main() {
  constexpr size_t kRows = 1 << 20;
  std::printf("building Item table (%zu rows)...\n", kRows);
  RowStore rows = BuildItemTable(kRows);

  // ---- storage comparison (§3.1 / Fig. 4) ---------------------------------
  Table table = *Table::FromRowStore(rows);
  size_t nsm_bytes = rows.record_width() * rows.size();
  std::printf("\nNSM record width: %zu bytes  -> table %.1f MB\n",
              rows.record_width(), nsm_bytes / 1048576.0);
  std::printf("DSM (BATs + byte-encodings):   table %.1f MB\n",
              table.MemoryBytes() / 1048576.0);
  size_t ship = *table.schema().FieldIndex("shipmode");
  std::printf("shipmode column: %zu-byte codes + %zu-entry dictionary "
              "(was 10-byte char field)\n",
              table.column_value_bytes(ship), table.dict(ship).size());

  // ---- query 1: zero-selectivity aggregate (the §2 experiment as SQL) ----
  //   SELECT SUM(qty) FROM item
  // NSM strides at the record width (91 B); DSM at the value width (4 B).
  std::printf("\nQ1: SELECT SUM(qty) FROM item\n");
  size_t f_qty0 = *rows.FieldIndex("qty");
  double nsm_scan_ms = MinTimeMillis(3, [&] {
    uint64_t sum = 0;
    for (size_t r = 0; r < rows.size(); ++r) sum += rows.GetU32(r, f_qty0);
    volatile uint64_t sink = sum;
    (void)sink;
  });
  auto qty_span =
      table.column_bat(*table.schema().FieldIndex("qty")).tail().Span<uint32_t>();
  double dsm_scan_ms = MinTimeMillis(3, [&] {
    uint64_t sum = 0;
    for (size_t r = 0; r < qty_span.size(); ++r) sum += qty_span[r];
    volatile uint64_t sink = sum;
    (void)sink;
  });
  std::printf("  NSM scan (91-byte stride): %7.2f ms\n", nsm_scan_ms);
  std::printf("  DSM scan ( 4-byte stride): %7.2f ms   (%.1fx)\n",
              dsm_scan_ms, nsm_scan_ms / dsm_scan_ms);

  // ---- query 2: the drill-down query --------------------------------------
  //   SELECT sum(qty) FROM item WHERE shipmode = 'MAIL' GROUP BY supp
  std::printf("\nQ2: SELECT supp, SUM(qty) FROM item WHERE shipmode='MAIL'"
              " GROUP BY supp\n");

  WallTimer t_nsm;
  // NSM execution: full-record scan.
  size_t f_ship = *rows.FieldIndex("shipmode");
  size_t f_qty = *rows.FieldIndex("qty");
  size_t f_supp = *rows.FieldIndex("supp");
  std::vector<uint64_t> nsm_sums(100, 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (std::memcmp(rows.GetBytes(r, f_ship), "MAIL\0", 5) == 0) {
      nsm_sums[rows.GetU32(r, f_supp)] += rows.GetU32(r, f_qty);
    }
  }
  double nsm_ms = t_nsm.ElapsedMillis();

  WallTimer t_dsm;
  // DSM execution through the fluent query API: the string-equality filter
  // is remapped onto the 1-byte shipmode code column and pipelined as a
  // candidate list into the grouped aggregation — no intermediate BAT.
  auto plan = QueryBuilder(table)
                  .Filter(Col("shipmode") == "MAIL")
                  .GroupByAgg({"supp"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  CCDB_CHECK(plan.ok());
  auto agg = Execute(*plan);
  CCDB_CHECK(agg.ok());
  double dsm_ms = t_dsm.ElapsedMillis();
  const auto& sums = agg->columns[*agg->ColumnIndex("sum")].i64_values;
  const auto& counts = agg->columns[*agg->ColumnIndex("count")].i64_values;
  uint64_t matching = 0;
  for (int64_t c : counts) matching += static_cast<uint64_t>(c);

  // Verify both engines agree.
  uint64_t nsm_total = 0, dsm_total = 0;
  for (uint64_t s : nsm_sums) nsm_total += s;
  for (int64_t s : sums) dsm_total += static_cast<uint64_t>(s);
  CCDB_CHECK(nsm_total == dsm_total);

  std::printf("  NSM row engine:    %7.2f ms\n", nsm_ms);
  std::printf("  DSM column engine: %7.2f ms   (%.1fx; %llu matching tuples,"
              " %zu groups)\n",
              dsm_ms, nsm_ms / dsm_ms, (unsigned long long)matching,
              agg->num_rows());

  // ---- top groups: OrderBy + Limit in the same fluent plan -----------------
  std::printf("\ntop suppliers by SUM(qty):\n");
  auto top_plan = QueryBuilder(table)
                      .Filter(Col("shipmode") == "MAIL")
                      .GroupByAgg({"supp"}, {Agg::Sum("qty"), Agg::Count()})
                      .OrderBy("sum", /*descending=*/true)
                      .Limit(5)
                      .Build();
  CCDB_CHECK(top_plan.ok());
  auto top = Execute(*top_plan);
  CCDB_CHECK(top.ok());
  const auto& top_supp = top->columns[*top->ColumnIndex("supp")].u32_values;
  const auto& top_sum = top->columns[*top->ColumnIndex("sum")].i64_values;
  const auto& top_count = top->columns[*top->ColumnIndex("count")].i64_values;
  for (size_t i = 0; i < top->num_rows(); ++i) {
    std::printf("  supp %3u  sum(qty) = %lld  (%lld items)\n", top_supp[i],
                (long long)top_sum[i], (long long)top_count[i]);
  }

  // ---- query 3: the richer algebra ----------------------------------------
  //   SELECT shipmode, status, MIN(qty), MAX(qty), AVG(qty), COUNT(*)
  //   FROM item WHERE qty BETWEEN 10 AND 40 AND tax <= 0.05
  //   GROUP BY shipmode, status
  // A conjunctive select fused into one candidate pass (the second
  // predicate narrows the survivors of the first without re-scanning) into
  // a multi-key grouped aggregation whose one accumulator pass answers
  // min/max/avg/count together — the analytics-suite shape memory-bound
  // engines are stressed with.
  std::printf("\nQ3: min/max/avg(qty) BY (shipmode, status) WHERE qty in "
              "[10,40] AND tax <= 0.05\n");
  WallTimer t_q3;
  auto rich = QueryBuilder(table)
                  .Filter(Between(Col("qty"), 10u, 40u) &&
                          Between(Col("tax"), 0.0, 0.05))
                  .GroupByAgg({"shipmode", "status"},
                              {Agg::Min("qty"), Agg::Max("qty"),
                               Agg::Avg("qty"), Agg::Count()})
                  .OrderBy("count", /*descending=*/true)
                  .Limit(5)
                  .Build();
  CCDB_CHECK(rich.ok());
  auto rich_res = Execute(*rich);
  CCDB_CHECK(rich_res.ok());
  double q3_ms = t_q3.ElapsedMillis();
  const auto& g_mode =
      rich_res->columns[*rich_res->ColumnIndex("shipmode")].str_values;
  const auto& g_min = rich_res->columns[*rich_res->ColumnIndex("min")].u32_values;
  const auto& g_max = rich_res->columns[*rich_res->ColumnIndex("max")].u32_values;
  const auto& g_avg = rich_res->columns[*rich_res->ColumnIndex("avg")].f64_values;
  const auto& g_cnt =
      rich_res->columns[*rich_res->ColumnIndex("count")].i64_values;
  std::printf("  %.2f ms; top (shipmode, status) groups by count:\n", q3_ms);
  for (size_t i = 0; i < rich_res->num_rows(); ++i) {
    std::printf("  %-8s min %2u  max %2u  avg %5.2f  (%lld items)\n",
                g_mode[i].c_str(), g_min[i], g_max[i], g_avg[i],
                (long long)g_cnt[i]);
  }

  // ---- query 4: the typed expression API ----------------------------------
  //   SELECT supp, SUM(qty), COUNT(*) FROM item
  //   WHERE shipmode IN ('MAIL', 'RAIL') OR (qty >= 45 AND NOT status = 'F')
  //   GROUP BY supp HAVING SUM(qty) >= 1000
  //   ORDER BY sum DESC LIMIT 5
  // Disjunctions, negation and HAVING lower to the same candidate-list
  // discipline as the conjunctions above:
  // each OR branch narrows its own sorted position list and the branches
  // merge-union, never materializing an intermediate BAT; Having filters
  // the aggregate output in place on its owned columns.
  std::printf("\nQ4: SUM(qty) BY supp WHERE shipmode IN {MAIL, RAIL} OR "
              "(qty >= 45 AND status != 'F') HAVING sum >= 1000\n");
  WallTimer t_q4;
  auto q4 = QueryBuilder(table)
                .Filter(InStr(Col("shipmode"), {"MAIL", "RAIL"}) ||
                        (Col("qty") >= 45u && !(Col("status") == "F")))
                .GroupByAgg({"supp"}, {Agg::Sum("qty"), Agg::Count()})
                .Having(Col("sum") >= 1000u)
                .OrderBy("sum", /*descending=*/true)
                .Limit(5)
                .Build();
  CCDB_CHECK(q4.ok());
  Planner q4_planner;
  auto q4_physical = q4_planner.Lower(*q4);
  CCDB_CHECK(q4_physical.ok());
  auto q4_res = q4_physical->Execute();
  CCDB_CHECK(q4_res.ok());
  double q4_ms = t_q4.ElapsedMillis();
  std::printf("%s", q4_physical->ExplainFilters().c_str());
  const auto& q4_supp = q4_res->columns[*q4_res->ColumnIndex("supp")].u32_values;
  const auto& q4_sum = q4_res->columns[*q4_res->ColumnIndex("sum")].i64_values;
  std::printf("  %.2f ms; top suppliers:\n", q4_ms);
  for (size_t i = 0; i < q4_res->num_rows(); ++i) {
    std::printf("  supp %3u  sum(qty) = %lld\n", q4_supp[i],
                (long long)q4_sum[i]);
  }
  return 0;
}
