// Monet-style operator pipeline (§3.1), expressed twice:
//
//   1. hand-composed BAT algebra — the bottom operator produces candidate
//      OIDs; every further column access is a "tuple-reconstruction join"
//      on OID columns, which positional (void) lookup reduces to one array
//      read per OID;
//   2. the fluent QueryBuilder API — the same query as a logical plan that
//      the Planner lowers to candidate-list-pipelining physical operators.
//
// Both paths must produce byte-identical group aggregates.
//
//   SQL equivalent over item(qty, price, supp):
//     SELECT supp, SUM(qty) FROM item WHERE price BETWEEN 2000 AND 3000
//     GROUP BY supp;
#include <algorithm>
#include <cstdio>

#include "algo/bat_algebra.h"
#include "algo/radix_aggregate.h"
#include "exec/plan.h"
#include "model/planner.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ccdb;

int main() {
  constexpr size_t kRows = 1 << 20;
  Rng rng(77);

  // The decomposed table: three BATs with a shared void OID head.
  std::vector<uint32_t> qty(kRows), price(kRows), supp(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    qty[i] = static_cast<uint32_t>(1 + rng.NextBelow(50));
    price[i] = static_cast<uint32_t>(rng.NextBelow(10000));
    supp[i] = static_cast<uint32_t>(rng.NextBelow(200));
  }
  Bat item_qty = Bat::DenseTail(Column::U32(qty));
  Bat item_price = Bat::DenseTail(Column::U32(price));
  Bat item_supp = Bat::DenseTail(Column::U32(supp));

  std::printf("item table: %zu tuples, 3 decomposition BATs "
              "(void heads cost 0 bytes; %zu bytes/BAT of values)\n\n",
              kRows, item_qty.MemoryBytes());

  // ---- path 1: hand-composed BAT algebra (the old free-function way) ------
  WallTimer t;
  // -- 1. selection on the price BAT -> candidate [OID, price] pairs.
  auto candidates = BatSelect(item_price, 2000, 3000);
  CCDB_CHECK(candidates.ok());
  std::printf("select(price, 2000, 3000)          -> %8zu candidates\n",
              candidates->size());

  // -- 2. tuple reconstruction: fetch qty and supp for the candidate OIDs
  //       via positional joins on the void-headed BATs (§3.1). Each
  //       BatJoin reads the BAT's tail at one position per candidate.
  auto cand_oids = *Bat::Make(candidates->head(), candidates->head());
  auto cand_qty = BatJoin(cand_oids, item_qty);
  auto cand_supp = BatJoin(cand_oids, item_supp);
  CCDB_CHECK(cand_qty.ok() && cand_supp.ok());
  std::printf("join(candidates, qty)  [positional] -> %8zu BUNs\n",
              cand_qty->size());
  std::printf("join(candidates, supp) [positional] -> %8zu BUNs\n",
              cand_supp->size());

  // -- 3. grouped aggregation on the reconstructed columns.
  DirectMemory mem;
  auto keys = cand_supp->tail().Span<uint32_t>();
  auto vals = cand_qty->tail().Span<uint32_t>();
  auto agg = RadixGroupSum<DirectMemory>(keys, vals, /*bits=*/0,
                                         /*passes=*/1, mem);
  CCDB_CHECK(agg.ok());
  double manual_ms = t.ElapsedMillis();
  std::printf("group-sum over supp                 -> %8zu groups\n",
              agg->size());
  std::printf("hand-composed pipeline: %.2f ms\n\n", manual_ms);

  // ---- path 2: the same query through the fluent QueryBuilder -------------
  auto rs = RowStore::Make({{"qty", FieldType::kU32},
                            {"price", FieldType::kU32},
                            {"supp", FieldType::kU32}},
                           kRows);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < kRows; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, qty[i]);
    rs->SetU32(r, 1, price[i]);
    rs->SetU32(r, 2, supp[i]);
  }
  Table item = *Table::FromRowStore(*rs);

  auto plan = QueryBuilder(item)
                  .Filter(Between(Col("price"), 2000u, 3000u))
                  .GroupByAgg({"supp"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  CCDB_CHECK(plan.ok());
  std::printf("logical plan:\n%s", plan->ToString().c_str());

  WallTimer t2;
  auto result = Execute(*plan);
  CCDB_CHECK(result.ok());
  double plan_ms = t2.ElapsedMillis();
  std::printf("QueryBuilder pipeline:  %.2f ms (%zu groups; selection "
              "pipelined as a candidate list, no intermediate BAT)\n\n",
              plan_ms, result->num_rows());

  // ---- byte-identical check -----------------------------------------------
  // Canonicalize both outputs as (supp -> sum) sorted by supp.
  std::vector<std::pair<uint32_t, uint64_t>> manual_rows, plan_rows;
  for (size_t g = 0; g < agg->size(); ++g) {
    manual_rows.emplace_back(agg->keys[g], agg->sums[g]);
  }
  const auto& supp_col = result->columns[*result->ColumnIndex("supp")];
  const auto& sum_col = result->columns[*result->ColumnIndex("sum")];
  for (size_t g = 0; g < result->num_rows(); ++g) {
    plan_rows.emplace_back(supp_col.u32_values[g],
                           static_cast<uint64_t>(sum_col.i64_values[g]));
  }
  std::sort(manual_rows.begin(), manual_rows.end());
  std::sort(plan_rows.begin(), plan_rows.end());
  CCDB_CHECK(manual_rows == plan_rows);

  uint64_t grand = 0;
  for (const auto& [k, s] : plan_rows) grand += s;
  std::printf("checksum: SUM(qty) over all groups = %llu\n",
              static_cast<unsigned long long>(grand));

  // Cross-check against a straight scan.
  uint64_t expect = 0;
  for (size_t i = 0; i < kRows; ++i) {
    if (2000 <= price[i] && price[i] <= 3000) expect += qty[i];
  }
  CCDB_CHECK(expect == grand);
  std::printf("oracle agrees; QueryBuilder and hand-composed BAT algebra "
              "produced byte-identical aggregates.\n");
  return 0;
}
