// Storage-layer micro-benchmarks (google-benchmark): the §3.1 claims.
//   * scanning one attribute: NSM record stride vs DSM value stride vs
//     1-byte encoded stride,
//   * predicate remap on encoded columns (through SelectOp, the operator a
//     query's Filter runs), the filter walk's narrowing conjunct and OR
//     through a sparse candidate list, and its i64, f64 and raw-string
//     leaves,
//   * tuple reconstruction via positional lookup, and the chunk-level
//     positional take (Chunk::Take) that filters and joins emit through,
//   * dictionary encode/decode throughput,
//   * the column-wise ingest append (Table::AppendRows).
#include <benchmark/benchmark.h>

#include "bat/dsm.h"
#include "bat/encoding.h"
#include "bench_common.h"
#include "exec/operator.h"
#include "exec/shared_scan.h"
#include "util/rng.h"

namespace ccdb {
namespace {

using bench::DrainSelect;

constexpr size_t kRows = 1 << 20;

RowStore MakeWideTable(size_t n) {
  // ~88-byte records like the paper's Item table.
  auto rs = RowStore::Make(
      {
          {"key", FieldType::kU32},
          {"qty", FieldType::kU32},
          {"price", FieldType::kF64},
          {"pad1", FieldType::kChar27},
          {"pad2", FieldType::kChar27},
          {"shipmode", FieldType::kChar10},
          {"flag", FieldType::kChar1},
          {"date", FieldType::kU32},
          {"tax", FieldType::kF64},
      },
      n);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP", "RAIL", "FOB"};
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(100)));
    rs->SetF64(r, 2, static_cast<double>(rng.NextBelow(10000)) / 100);
    const char* m = modes[rng.NextBelow(6)];
    rs->SetBytes(r, 5, m, strlen(m));
    rs->SetU32(r, 7, static_cast<uint32_t>(19990000 + rng.NextBelow(365)));
  }
  return *std::move(rs);
}

const RowStore& WideTable() {
  static RowStore rows = MakeWideTable(kRows);
  return rows;
}

const Table& DecomposedWideTable() {
  static Table t = *Table::FromRowStore(WideTable());
  return t;
}

void BM_ScanQtyNsm(benchmark::State& state) {
  const RowStore& rows = WideTable();
  size_t f = *rows.FieldIndex("qty");
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t r = 0; r < rows.size(); ++r) sum += rows.GetU32(r, f);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
  state.SetLabel("stride=" + std::to_string(rows.record_width()) + "B");
}
BENCHMARK(BM_ScanQtyNsm);

void BM_ScanQtyDsm(benchmark::State& state) {
  const Table& t = DecomposedWideTable();
  auto qty = t.column_bat(*t.schema().FieldIndex("qty")).tail().Span<uint32_t>();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t r = 0; r < qty.size(); ++r) sum += qty[r];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * qty.size());
  state.SetLabel("stride=4B");
}
BENCHMARK(BM_ScanQtyDsm);

void BM_SelectShipmodeNsm(benchmark::State& state) {
  const RowStore& rows = WideTable();
  size_t f = *rows.FieldIndex("shipmode");
  for (auto _ : state) {
    uint64_t hits = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      hits += std::memcmp(rows.GetBytes(r, f), "MAIL\0", 5) == 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_SelectShipmodeNsm);

void BM_SelectShipmodeEncodedDsm(benchmark::State& state) {
  // §3.1: predicate remapped to a 1-byte code; scan stride 1 byte.
  const Table& t = DecomposedWideTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DrainSelect(t, Col("shipmode") == "MAIL"));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
  state.SetLabel("stride=1B (encoded)");
}
BENCHMARK(BM_SelectShipmodeEncodedDsm);

void BM_TupleReconstruct(benchmark::State& state) {
  static auto dsm_or = DecomposedTable::Decompose(WideTable());
  CCDB_CHECK(dsm_or.ok());
  auto out = RowStore::Make(WideTable().fields(), 1);
  CCDB_CHECK(out.ok());
  CCDB_CHECK(out->AppendRow().ok());
  Rng rng(3);
  for (auto _ : state) {
    oid_t o = static_cast<oid_t>(rng.NextBelow(kRows));
    CCDB_CHECK(dsm_or->ReconstructRow(o, &*out, 0).ok());
    benchmark::DoNotOptimize(out->RowPtr(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleReconstruct);

// Chunk::Take of 64k rows: the positional take every filter and join output
// goes through. The chunk looks like a join result: lazy columns over a
// dense (scan) and a sparse (build-side) candidate list of the wide table.
// Arg 0 takes a contiguous run of a 128k-row chunk, Arg 1 random positions
// of it, Arg 2 every row of a 64k-row chunk in order (the identity take).
constexpr size_t kTakeRows = 1 << 16;

void BM_ChunkTake(benchmark::State& state) {
  const Table& t = DecomposedWideTable();
  const bool identity = state.range(0) == 2;
  const size_t rows = identity ? kTakeRows : 2 * kTakeRows;
  Rng rng(13);
  std::vector<oid_t> build_oids(rows);
  for (oid_t& o : build_oids) o = static_cast<oid_t>(rng.NextBelow(kRows));
  Chunk chunk;
  chunk.rows = rows;
  chunk.cands = {Candidates::Dense(0, rows),
                 Candidates::FromOids(std::move(build_oids))};
  for (auto [name, slot] : {std::pair<const char*, size_t>{"qty", 0},
                            {"price", 0},
                            {"key", 1},
                            {"date", 1}}) {
    ChunkColumn col;
    col.name = name;
    col.base = &t;
    col.base_col = *t.schema().FieldIndex(name);
    col.cand_slot = slot;
    chunk.cols.push_back(std::move(col));
  }
  std::vector<uint32_t> positions(kTakeRows);
  for (size_t i = 0; i < kTakeRows; ++i) {
    switch (state.range(0)) {
      case 0: positions[i] = static_cast<uint32_t>(kTakeRows / 2 + i); break;
      case 1: positions[i] = static_cast<uint32_t>(rng.NextBelow(rows)); break;
      default: positions[i] = static_cast<uint32_t>(i); break;
    }
  }
  for (auto _ : state) {
    auto taken = chunk.Take(positions);
    CCDB_CHECK(taken.ok());
    benchmark::DoNotOptimize(taken->cands.data());
  }
  state.SetItemsProcessed(state.iterations() * kTakeRows);
  state.SetLabel(state.range(0) == 0   ? "dense"
                 : state.range(0) == 1 ? "sparse-random"
                                       : "identity");
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(kTakeRows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChunkTake)->Arg(0)->Arg(1)->Arg(2);

void BM_DictEncodeStrings(benchmark::State& state) {
  std::vector<std::string> modes = {"MAIL", "AIR",  "TRUCK",
                                    "SHIP", "RAIL", "FOB"};
  std::vector<std::string> values;
  Rng rng(11);
  for (size_t i = 0; i < 100000; ++i)
    values.push_back(modes[rng.NextBelow(6)]);
  Column col = Column::Str(values);
  for (auto _ : state) {
    auto enc = DictEncode(col);
    CCDB_CHECK(enc.ok());
    benchmark::DoNotOptimize(enc->dict.size());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_DictEncodeStrings);

void BM_RangeSelectU32(benchmark::State& state) {
  const Table& t = DecomposedWideTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DrainSelect(t, Between(Col("qty"), 10u, 20u)));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_RangeSelectU32);

// A two-conjunct filter: the first leaf scans the chunk, the second (date,
// about half of qty's ~50% survivors) narrows the survivor list.
void BM_SelectTwoConjuncts(benchmark::State& state) {
  const Table& t = DecomposedWideTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DrainSelect(
        t, Between(Col("qty"), 10u, 59u) && Col("date") < 19990182u));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(t.num_rows()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SelectTwoConjuncts);

// An OR evaluated through a sparse candidate list: a chunk whose columns
// are lazy behind the ascending OIDs of a random half of the table, the
// shape a previous filter leaves.
void BM_SelectOrSparseList(benchmark::State& state) {
  const Table& t = DecomposedWideTable();
  Rng rng(17);
  std::vector<oid_t> oids;
  for (size_t i = 0; i < kRows; ++i) {
    if (rng.NextBelow(2) == 0) oids.push_back(static_cast<oid_t>(i));
  }
  Chunk chunk;
  chunk.rows = oids.size();
  chunk.cands = {Candidates::FromOids(std::move(oids))};
  for (const char* name : {"qty", "shipmode"}) {
    ChunkColumn col;
    col.name = name;
    col.base = &t;
    col.base_col = *t.schema().FieldIndex(name);
    chunk.cols.push_back(std::move(col));
  }
  Expr e = NormalizeExpr(Col("qty") < 10u || Col("shipmode") == "AIR");
  for (auto _ : state) {
    auto positions = EvalFilterPositions(chunk, e, nullptr);
    CCDB_CHECK(positions.ok());
    benchmark::DoNotOptimize(positions->data());
  }
  state.SetItemsProcessed(state.iterations() * chunk.rows);
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(chunk.rows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SelectOrSparseList);

// Leaf types the wide table does not hold: an i64 column and a raw
// (unencoded) string column, each filtered through SelectOp.
const Table& NarrowRawTable() {
  static Table t = [] {
    auto rs = RowStore::Make(
        {{"amount", FieldType::kI64}, {"shipmode", FieldType::kChar10}},
        kRows);
    CCDB_CHECK(rs.ok());
    const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP", "RAIL", "FOB"};
    Rng rng(11);
    for (size_t i = 0; i < kRows; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetI64(r, 0, static_cast<int64_t>(rng.NextBelow(1000)) - 500);
      const char* m = modes[rng.NextBelow(6)];
      rs->SetBytes(r, 1, m, strlen(m));
    }
    return *Table::FromRowStore(*rs, /*auto_encode=*/false);
  }();
  return t;
}

// Drains `e` over `t` per iteration and reports items and ns per row.
void RunSelect(benchmark::State& state, const Table& t, const Expr& e) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DrainSelect(t, e));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(t.num_rows()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_SelectI64Ne(benchmark::State& state) {
  RunSelect(state, NarrowRawTable(), Col("amount") != -7LL);
}
BENCHMARK(BM_SelectI64Ne);

void BM_SelectF64Lt(benchmark::State& state) {
  RunSelect(state, DecomposedWideTable(), Col("price") < 50.0);
}
BENCHMARK(BM_SelectF64Lt);

void BM_SelectF64Ne(benchmark::State& state) {
  RunSelect(state, DecomposedWideTable(), Col("price") != 50.0);
}
BENCHMARK(BM_SelectF64Ne);

void BM_SelectRawStrIn(benchmark::State& state) {
  RunSelect(state, NarrowRawTable(),
            InStr(Col("shipmode"), {"AIR", "MAIL", "RAIL"}));
}
BENCHMARK(BM_SelectRawStrIn);

// Ingest rows: u32 id, a 7-value kChar10 mode, u32 qty and price.
RowStore MakeIngestRows(size_t n, Rng& rng) {
  auto rs = RowStore::Make({{"id", FieldType::kU32},
                            {"mode", FieldType::kChar10},
                            {"qty", FieldType::kU32},
                            {"price", FieldType::kU32}},
                           n);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"AIR",     "FOB",  "MAIL", "RAIL",
                         "REG AIR", "SHIP", "TRUCK"};
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    const char* m = modes[rng.NextBelow(7)];
    rs->SetBytes(r, 1, m, strlen(m));
    rs->SetU32(r, 2, static_cast<uint32_t>(1 + rng.NextBelow(50)));
    rs->SetU32(r, 3, static_cast<uint32_t>(rng.NextBelow(10000)));
  }
  return *std::move(rs);
}

// Table::AppendRows of one 12.5k-row ingest batch onto a table of
// range(0) rows. Each iteration appends to a fresh copy of the table, made
// (and the previous one freed) outside the timed region; ns_per_row is per
// appended row.
void BM_AppendRows(benchmark::State& state) {
  constexpr size_t kBatchRows = 12'500;
  Rng rng(12);
  const Table base = *Table::FromRowStore(
      MakeIngestRows(static_cast<size_t>(state.range(0)), rng));
  const RowStore batch = MakeIngestRows(kBatchRows, rng);
  Table t;
  for (auto _ : state) {
    state.PauseTiming();
    t = base;
    state.ResumeTiming();
    CCDB_CHECK(t.AppendRows(batch).ok());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(kBatchRows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_AppendRows)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ccdb

BENCHMARK_MAIN();
