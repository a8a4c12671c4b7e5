// Exec-layer integration: the Fig. 4 Item table decomposed + byte-encoded,
// selections with predicate remap, group-by, gathers, and table-level joins
// against a row-store oracle and the raw-BUN join driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

#include "algo/join.h"
#include "dist/wire.h"
#include "exec/operator.h"
#include "exec/table.h"
#include "mem/arena.h"
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

// A join input: `n` rows of (k, id) with k uniform below `key_range` (or
// k = row id when `key_range` is 0, a primary key) and id = row id.
Table MakeKeyedTable(size_t n, uint32_t key_range, const char* id, Rng& rng) {
  auto rs = RowStore::Make({{"k", FieldType::kU32}, {id, FieldType::kU32}}, n);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0,
               key_range == 0 ? static_cast<uint32_t>(i)
                              : static_cast<uint32_t>(rng.NextBelow(key_range)));
    rs->SetU32(r, 1, static_cast<uint32_t>(i));
  }
  return *Table::FromRowStore(*rs);
}

// The OIDs a Filter selects: SelectOp over one whole-table scan chunk.
std::vector<oid_t> SelectOids(const Table& t, Expr e) {
  SelectOp op(std::make_unique<ScanOp>(&t, SIZE_MAX), std::move(e));
  CCDB_CHECK(op.Open().ok());
  std::vector<oid_t> oids;
  for (;;) {
    Chunk chunk;
    auto more = op.Next(&chunk);
    CCDB_CHECK(more.ok());
    if (!*more) break;
    for (size_t i = 0; i < chunk.rows; ++i) {
      oids.push_back(chunk.cands[0].Get(i));
    }
  }
  op.Close();
  return oids;
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
  EXPECT_EQ(SelectOids(t, Col("shipmode") == "AIR"),
            (std::vector<oid_t>{1, 5, 9}));
}

// --- AppendRows: a column-wise append equals a rebuild ----------------------

// Rows [0, rows) of `parts`, concatenated in order.
RowStore Prefix(const std::vector<RowStore>& parts, size_t rows) {
  RowStore out = *RowStore::Make(parts.front().fields(), rows);
  for (const RowStore& p : parts) {
    for (size_t r = 0; r < p.size() && out.size() < rows; ++r) {
      std::memcpy(out.RowPtr(*out.AppendRow()), p.RowPtr(r),
                  p.record_width());
    }
  }
  return out;
}

void ExpectSameColumn(const Column& got, const Column& want) {
  ASSERT_EQ(got.type(), want.type());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
  for (size_t r = 0; r < got.size(); ++r) {
    if (got.type() == PhysType::kStr) {
      ASSERT_EQ(got.GetStr(r), want.GetStr(r)) << "row " << r;
    } else if (got.type() == PhysType::kF64) {
      ASSERT_EQ(std::memcmp(&got.Span<double>()[r], &want.Span<double>()[r],
                            sizeof(double)),
                0)
          << "row " << r;
    } else {
      ASSERT_EQ(got.GetIntegral(r), want.GetIntegral(r)) << "row " << r;
    }
  }
}

// Physical types, values, encodings, dictionaries (and their order), the
// footprint and the statistics of `got` equal those of `want`.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
  for (size_t i = 0; i < got.num_columns(); ++i) {
    SCOPED_TRACE(got.schema().field(i).name);
    EXPECT_TRUE(got.column_bat(i).head().is_void());
    EXPECT_EQ(got.column_bat(i).head().size(), got.num_rows());
    ExpectSameColumn(got.column_bat(i).tail(), want.column_bat(i).tail());
    ASSERT_EQ(got.is_encoded(i), want.is_encoded(i));
    if (got.is_encoded(i)) {
      const StrDictionary& d = got.dict(i);
      ASSERT_EQ(d.size(), want.dict(i).size());
      for (uint32_t c = 0; c < d.size(); ++c) {
        EXPECT_EQ(d.Get(c), want.dict(i).Get(c));
      }
      // ComputeColumnStats takes [0, dict size) as the codes' range.
      std::vector<bool> seen(d.size(), false);
      const Column& codes = got.column_bat(i).tail();
      for (size_t r = 0; r < codes.size(); ++r) seen[codes.GetIntegral(r)] = true;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
    }
    auto gs = got.stats(i);
    auto ws = want.stats(i);
    ASSERT_TRUE(gs.ok() && ws.ok());
    EXPECT_EQ(gs->row_count, ws->row_count);
    EXPECT_EQ(gs->distinct, ws->distinct);
    EXPECT_EQ(gs->distinct_exact, ws->distinct_exact);
    EXPECT_EQ(gs->has_range, ws->has_range);
    EXPECT_EQ(gs->min, ws->min);
    EXPECT_EQ(gs->max, ws->max);
    EXPECT_EQ(gs->encoded, ws->encoded);
  }
}

void SetStr(RowStore& rs, size_t row, size_t f, const std::string& v) {
  rs.SetBytes(row, f, v.data(), v.size());
}

// Seeded batches over every FieldType. The char27 domain grows with the
// batch index, so its codes cross 256 values (u8 -> u16) mid-sequence.
std::vector<RowStore> MakeAllTypeBatches() {
  const std::vector<FieldDef> fields = {
      {"u8", FieldType::kU8},       {"u16", FieldType::kU16},
      {"u32", FieldType::kU32},     {"i64", FieldType::kI64},
      {"f64", FieldType::kF64},     {"c1", FieldType::kChar1},
      {"c10", FieldType::kChar10},  {"c27", FieldType::kChar27}};
  const char* modes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                         "TRUCK"};
  const size_t sizes[] = {0, 50, 0, 200, 300, 1, 500};
  const uint64_t c27_domain[] = {1, 40, 40, 150, 400, 400, 1000};
  Rng rng(27);
  std::vector<RowStore> batches;
  for (size_t b = 0; b < std::size(sizes); ++b) {
    RowStore rs = *RowStore::Make(fields, sizes[b]);
    for (size_t i = 0; i < sizes[b]; ++i) {
      size_t r = *rs.AppendRow();
      rs.SetU8(r, 0, static_cast<uint8_t>(rng.NextBelow(256)));
      auto u16 = static_cast<uint16_t>(rng.NextBelow(65536));
      rs.SetBytes(r, 1, &u16, sizeof(u16));
      rs.SetU32(r, 2, static_cast<uint32_t>(rng.NextU64()));
      rs.SetI64(r, 3, static_cast<int64_t>(rng.NextU64()));
      rs.SetF64(r, 4, (rng.NextDouble() - 0.5) * 1e6);
      SetStr(rs, r, 5, rng.NextBelow(2) == 0 ? "Y" : "N");
      SetStr(rs, r, 6, modes[rng.NextBelow(std::size(modes))]);
      uint64_t c = rng.NextBelow(c27_domain[b]);
      // Code 0 is the empty string (an all-NUL field).
      SetStr(rs, r, 7, c == 0 ? "" : "comment " + std::to_string(c));
    }
    batches.push_back(std::move(rs));
  }
  return batches;
}

TEST(TableTest, AppendRowsEqualsFromRowStoreOverAllRows) {
  std::vector<RowStore> batches = MakeAllTypeBatches();
  for (bool auto_encode : {true, false}) {
    SCOPED_TRACE(auto_encode ? "encoded" : "raw");
    // Batch 0 is empty: the table starts with 0 rows.
    Table t = *Table::FromRowStore(batches[0], auto_encode);
    size_t rows = 0;
    bool widened = false;
    for (size_t b = 1; b < batches.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      PhysType c27_before = t.column_bat(7).tail().type();
      ASSERT_TRUE(t.AppendRows(batches[b]).ok());
      EXPECT_EQ(t.data_version(), b);
      rows += batches[b].size();
      Table want = *Table::FromRowStore(Prefix(batches, rows), auto_encode);
      ExpectSameTable(t, want);
      widened |= c27_before == PhysType::kU8 &&
                 t.column_bat(7).tail().type() == PhysType::kU16;
    }
    EXPECT_EQ(widened, auto_encode);
    for (size_t i : {5u, 6u, 7u}) EXPECT_EQ(t.is_encoded(i), auto_encode);
  }
}

TEST(TableTest, AppendRowsPastTwoByteCodesStoresTheColumnRaw) {
  auto make = [](size_t lo, size_t hi) {
    RowStore rs = *RowStore::Make(
        {{"id", FieldType::kU32}, {"s", FieldType::kChar10}}, hi - lo);
    for (size_t v = lo; v < hi; ++v) {
      size_t r = *rs.AppendRow();
      rs.SetU32(r, 0, static_cast<uint32_t>(v));
      SetStr(rs, r, 1, "k" + std::to_string(v));
    }
    return rs;
  };
  std::vector<RowStore> batches;
  batches.push_back(make(0, 65000));
  batches.push_back(make(65000, 65536));  // exactly 65536 values: u16
  batches.push_back(make(65536, 65540));  // past 2-byte codes: raw
  batches.push_back(make(65540, 65600));  // raw stays raw
  Table t = *Table::FromRowStore(batches[0]);
  size_t rows = batches[0].size();
  for (size_t b = 1; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ASSERT_TRUE(t.AppendRows(batches[b]).ok());
    rows += batches[b].size();
    ExpectSameTable(t, *Table::FromRowStore(Prefix(batches, rows)));
    EXPECT_EQ(t.is_encoded(1), b == 1);
  }
  EXPECT_EQ(t.column_bat(1).tail().type(), PhysType::kStr);
  EXPECT_EQ(SelectOids(t, Col("s") == "k65000"), (std::vector<oid_t>{65000}));
  EXPECT_EQ(SelectOids(t, Col("s") == "k65599"), (std::vector<oid_t>{65599}));
  EXPECT_EQ(SelectOids(t, Col("s") == "k7"), (std::vector<oid_t>{7}));
}

TEST(TableTest, RejectedAppendLeavesTheTableUnchanged) {
  Table t = *Table::FromRowStore(MakeItems(40));
  ASSERT_TRUE(t.AppendRows(MakeItems(3)).ok());
  const Table before = t;
  auto wrong = RowStore::Make(
      {
          {"order", FieldType::kU32},
          {"qty", FieldType::kU32},
          {"price", FieldType::kF64},
          {"shipmode", FieldType::kChar27},
      },
      1);
  ASSERT_TRUE(wrong.ok());
  ASSERT_TRUE(wrong->AppendRow().ok());
  EXPECT_EQ(t.AppendRows(*wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.data_version(), 1u);
  ExpectSameTable(t, before);
}

TEST(TableTest, EncodingStaysDisabledAcrossAppend) {
  auto rows = [](std::initializer_list<const char*> values) {
    RowStore rs = *RowStore::Make({{"s", FieldType::kChar10}}, values.size());
    for (const char* v : values) SetStr(rs, *rs.AppendRow(), 0, v);
    return rs;
  };
  Table t = *Table::FromRowStore(rows({"AIR", "MAIL"}), /*auto_encode=*/false);
  ASSERT_TRUE(t.AppendRows(rows({"AIR"})).ok());
  EXPECT_FALSE(t.is_encoded(0));
  ExpectSameTable(t, *Table::FromRowStore(rows({"AIR", "MAIL", "AIR"}),
                                          /*auto_encode=*/false));
  EXPECT_EQ(SelectOids(t, Col("s") == "AIR"), (std::vector<oid_t>{0, 2}));
}

TEST(TableTest, StringEqualityRemapsToCodes) {
  Table t = *Table::FromRowStore(MakeItems(40));
  std::vector<oid_t> sel = SelectOids(t, Col("shipmode") == "MAIL");
  ASSERT_EQ(sel.size(), 10u);
  for (oid_t o : sel) EXPECT_EQ(o % 4, 0u);
  // Unknown value: empty, not an error.
  EXPECT_TRUE(SelectOids(t, Col("shipmode") == "PIGEON").empty());
  // Wrong column name -> NotFound, at Build().
  EXPECT_EQ(QueryBuilder(t).Filter(Col("nope") == "MAIL").Build()
                .status().code(),
            StatusCode::kNotFound);
  // Non-string column -> InvalidArgument, at Build().
  EXPECT_EQ(QueryBuilder(t).Filter(Col("qty") == "MAIL").Build()
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, RangeSelects) {
  Table t = *Table::FromRowStore(MakeItems(20));
  for (oid_t o : SelectOids(t, Between(Col("qty"), 4u, 5u))) {
    EXPECT_GE(1 + o % 5, 4u);
  }
  EXPECT_EQ(SelectOids(t, Between(Col("price"), 12.0, 14.0)),
            (std::vector<oid_t>{2, 3, 4}));
  EXPECT_EQ(QueryBuilder(t).Filter(Between(Col("price"), 0u, 1u)).Build()
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, GroupSumOverEncodedColumn) {
  Table t = *Table::FromRowStore(MakeItems(40));
  auto plan = QueryBuilder(t)
                  .GroupByAgg({"shipmode"}, {Agg::Sum("qty"), Agg::Count()})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto agg = Execute(*plan);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 4u);
  // Oracle.
  std::map<std::string, int64_t> expect;
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < 40; ++i) expect[modes[i % 4]] += 1 + i % 5;
  for (size_t g = 0; g < agg->num_rows(); ++g) {
    // Group keys come back decoded from the dictionary.
    const std::string& name = agg->columns[0].str_values[g];
    ASSERT_EQ(expect.count(name), 1u) << name;
    EXPECT_EQ(agg->columns[1].i64_values[g], expect[name]) << name;
    EXPECT_EQ(agg->columns[2].i64_values[g], 10);
  }
}

TEST(TableTest, Gathers) {
  Table t = *Table::FromRowStore(MakeItems(10));
  size_t shipmode = *t.schema().FieldIndex("shipmode");
  std::vector<oid_t> oids = {1, 3, 9};
  auto modes = t.GatherStr(shipmode, oids);
  ASSERT_TRUE(modes.ok());
  EXPECT_EQ(*modes, (std::vector<std::string>{"AIR", "SHIP", "AIR"}));
  // The same OIDs as a chunk's candidate list: tuple reconstruction of
  // every column type through Chunk's gathers.
  Chunk chunk;
  chunk.rows = oids.size();
  chunk.cands.push_back(Candidates::FromOids(oids));
  for (const char* name : {"price", "qty", "shipmode"}) {
    ChunkColumn col;
    col.name = name;
    col.base = &t;
    col.base_col = *t.schema().FieldIndex(name);
    chunk.cols.push_back(std::move(col));
  }
  auto prices = chunk.Gather<double>(0);
  ASSERT_TRUE(prices.ok());
  EXPECT_DOUBLE_EQ((*prices)[1], 13.0);
  auto qty = chunk.Gather<uint32_t>(1);
  ASSERT_TRUE(qty.ok());
  EXPECT_EQ((*qty)[0], 2u);
  EXPECT_EQ(*chunk.Gather<std::string>(2), *modes);
  // Out-of-range OID caught.
  std::vector<oid_t> bad = {99};
  EXPECT_EQ(t.GatherStr(shipmode, bad).status().code(),
            StatusCode::kOutOfRange);

  // 1- and 2-byte columns (a u8 field; the codes of a 300-string column)
  // widen through a dense range, a list and as owned columns, equal to
  // Column::GetIntegral row by row.
  auto narrow_rows = RowStore::Make(
      {{"small", FieldType::kU8}, {"word", FieldType::kChar10}}, 600);
  ASSERT_TRUE(narrow_rows.ok());
  for (size_t i = 0; i < 600; ++i) {
    size_t r = *narrow_rows->AppendRow();
    narrow_rows->SetU8(r, 0, static_cast<uint8_t>(i * 7));
    std::string word = "w" + std::to_string(i * 11 % 300);
    narrow_rows->SetBytes(r, 1, word.data(), word.size());
  }
  Table narrow = *Table::FromRowStore(*narrow_rows);
  for (size_t c : {size_t{0}, size_t{1}}) {
    const Column& tail = narrow.column_bat(c).tail();
    EXPECT_EQ(tail.type(), c == 0 ? PhysType::kU8 : PhysType::kU16);
    for (const Candidates& cd :
         {Candidates::Dense(0, 600), Candidates::Dense(37, 500),
          Candidates::FromOids({599, 0, 300, 5, 5})}) {
      Chunk lazy;
      lazy.rows = cd.count;
      lazy.cands.push_back(cd);
      ChunkColumn col;
      col.name = "c";
      col.base = &narrow;
      col.base_col = c;
      lazy.cols.push_back(col);
      auto got = lazy.Gather<uint32_t>(0);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), cd.count);
      for (size_t i = 0; i < cd.count; ++i) {
        EXPECT_EQ((*got)[i], tail.GetIntegral(cd.Get(i))) << c << " " << i;
      }
    }
    Chunk owned;
    owned.rows = tail.size();
    ChunkColumn col;
    col.name = "c";
    col.owned = std::make_shared<const Column>(tail);
    owned.cols.push_back(col);
    auto got = owned.Gather<uint32_t>(0);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), tail.size());
    for (size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ((*got)[i], tail.GetIntegral(i)) << c << " " << i;
    }
    // A dense range or a list past the column is an error, not a short
    // read.
    for (const Candidates& cd :
         {Candidates::Dense(590, 20), Candidates::FromOids({0, 600})}) {
      Chunk past;
      past.rows = cd.count;
      past.cands.push_back(cd);
      ChunkColumn lazy_col;
      lazy_col.name = "c";
      lazy_col.base = &narrow;
      lazy_col.base_col = c;
      past.cols.push_back(lazy_col);
      EXPECT_EQ(past.Gather<uint32_t>(0).status().code(),
                StatusCode::kOutOfRange);
    }
  }
  // A non-integral column is rejected.
  EXPECT_EQ(chunk.Gather<uint32_t>(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, MemoryFootprintBeatsNsm) {
  RowStore rows = MakeItems(1000);
  Table t = *Table::FromRowStore(rows);
  size_t nsm_bytes = rows.record_width() * rows.size();
  // DSM + encodings: 4 (order) + 4 (qty) + 8 (price) + 1 (shipmode code)
  // = 17 bytes/tuple vs 26 NSM bytes.
  EXPECT_LT(t.MemoryBytes(), nsm_bytes);
}

TEST(TableTest, ColumnBatToBuns) {
  Table t = *Table::FromRowStore(MakeItems(6));
  auto buns = t.column_bat(*t.schema().FieldIndex("order")).ToBuns();
  ASSERT_TRUE(buns.ok());
  ASSERT_EQ(buns->size(), 6u);
  EXPECT_EQ((*buns)[0], (Bun{0, 0}));
  EXPECT_EQ((*buns)[5], (Bun{5, 1}));
  EXPECT_EQ(t.column_bat(*t.schema().FieldIndex("price")).ToBuns()
                .status().code(),
            StatusCode::kInvalidArgument);  // f64 tail not BUN-able
}

// The probe sides the JoinOp byte-identity tests join from. Beyond the base
// table, each reads the probe key through a sparse candidate list: the
// table filtered (ProbeKept), and a join result whose `left` rows arrive in
// the shuffled order of `left_ids` (column left_id), as star_join's second
// join reads the fact table through the first join's list.
enum class ProbeShape { kBaseTable, kFilteredBaseTable, kJoinResult };

const char* ProbeShapeName(ProbeShape shape) {
  return shape == ProbeShape::kBaseTable           ? "base table probe"
         : shape == ProbeShape::kFilteredBaseTable ? "filtered probe"
                                                   : "join result probe";
}

// The probe rows a filtered probe side keeps: drops lid 0..499 and a block
// from the middle.
bool ProbeKept(ProbeShape shape, uint32_t lid) {
  return shape != ProbeShape::kFilteredBaseTable ||
         (lid >= 500u && (lid < 10000u || lid > 19999u));
}

QueryBuilder ProbeQuery(ProbeShape shape, const Table& left,
                        const Table& left_ids) {
  if (shape == ProbeShape::kJoinResult) {
    QueryBuilder q(left_ids);
    q.Join(left, "left_id", "lid");
    return q;
  }
  QueryBuilder q(left);
  if (shape == ProbeShape::kFilteredBaseTable) {
    q.Filter(Col("lid") >= 500u && !Between(Col("lid"), 10000u, 19999u));
  }
  return q;
}

// A one-column table `name` holding 0..n-1 in a seeded shuffled order.
Table ShuffledIds(uint32_t n, const char* name, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  Shuffle(ids, rng);
  auto rs = RowStore::Make({{name, FieldType::kU32}}, n);
  CCDB_CHECK(rs.ok());
  for (uint32_t id : ids) rs->SetU32(*rs->AppendRow(), 0, id);
  return *Table::FromRowStore(*rs);
}

TEST(JoinRelationsTest, AllStrategiesProduceSameResult) {
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
  DirectMemory mem;
  JoinPlan ref_plan = PlanJoin(JoinStrategy::kSimpleHash, kN, m);
  auto ref = JoinRelations(l, r, ShapeOf(ref_plan), mem);
  ASSERT_TRUE(ref.ok());
  auto expect = canon(*ref);
  for (JoinStrategy s : {JoinStrategy::kSortMerge, JoinStrategy::kPhashL2,
                         JoinStrategy::kPhashTLB, JoinStrategy::kPhashL1,
                         JoinStrategy::kPhash256, JoinStrategy::kPhashMin,
                         JoinStrategy::kRadix8, JoinStrategy::kRadixMin,
                         JoinStrategy::kBest}) {
    JoinPlan plan = PlanJoin(s, kN, m);
    JoinStats stats;
    auto got = JoinRelations(l, r, ShapeOf(plan), mem, &stats);
    ASSERT_TRUE(got.ok()) << JoinStrategyName(s);
    EXPECT_EQ(canon(*got), expect) << JoinStrategyName(s);
    EXPECT_EQ(stats.result_count, got->size());
  }
}

TEST(JoinOpTest, MatchesJoinRelationsRowForRow) {
  // JoinOp (one probe chunk) and the whole-relation join driver must emit
  // the same [left OID, right OID] sequence, unsorted: same cluster-pair
  // order, same probe order within a pair, and duplicate keys in reverse
  // build order. Each table carries its row id, so projecting both ids
  // from the join plan yields the join index. The multiset of pairs is
  // checked against a key -> build heads map, which runs no engine kernel.
  // The keys repeat, so kBest's positional choice falls back at Open() to
  // the plan PlanJoin gives without a domain.
  constexpr size_t kN = 100000;  // every radix/phash plan gets bits > 0
  Rng rng(5);
  auto make = [&](size_t n, const char* id) {
    auto rs = RowStore::Make({{"k", FieldType::kU32}, {id, FieldType::kU32}},
                             n);
    CCDB_CHECK(rs.ok());
    for (size_t i = 0; i < n; ++i) {
      size_t r = *rs->AppendRow();
      rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kN / 4)));
      rs->SetU32(r, 1, static_cast<uint32_t>(i));
    }
    return *Table::FromRowStore(*rs);
  };
  // ~4 rows per key on the inner, ~2 on the probe.
  Table left = make(kN / 2, "lid");
  Table right = make(kN, "rid");
  std::vector<Bun> l = *left.column_bat(0).ToBuns();
  std::vector<Bun> r = *right.column_bat(0).ToBuns();
  DirectMemory mem;
  auto canon = [](std::vector<Bun> v) {
    std::sort(v.begin(), v.end(), [](const Bun& a, const Bun& b) {
      return a.head != b.head ? a.head < b.head : a.tail < b.tail;
    });
    return v;
  };
  std::vector<std::vector<oid_t>> heads_of(kN / 4);
  for (const Bun& b : r) heads_of[b.tail].push_back(b.head);
  std::vector<Bun> reference;
  for (const Bun& p : l) {
    for (oid_t h : heads_of[p.tail]) reference.push_back({p.head, h});
  }
  reference = canon(std::move(reference));
  MachineProfile m = MachineProfile::GenericX86();
  PlannerOptions opts;
  opts.profile = m;
  opts.exec.parallelism = 1;
  opts.exec.scan_chunk_rows = SIZE_MAX;
  for (JoinStrategy s : {JoinStrategy::kSortMerge, JoinStrategy::kSimpleHash,
                         JoinStrategy::kPhashL2, JoinStrategy::kPhashTLB,
                         JoinStrategy::kPhashL1, JoinStrategy::kPhash256,
                         JoinStrategy::kPhashMin, JoinStrategy::kRadix8,
                         JoinStrategy::kRadixMin, JoinStrategy::kBest}) {
    JoinPlan plan = PlanJoin(s, kN, m);
    if (s != JoinStrategy::kSortMerge && s != JoinStrategy::kSimpleHash) {
      EXPECT_GT(plan.bits, 0) << JoinStrategyName(s);
    }
    auto driver = JoinRelations(std::span<const Bun>(l),
                                std::span<const Bun>(r), ShapeOf(plan), mem);
    auto query =
        QueryBuilder(left).Join(right, "k", "k", s).Project({"lid", "rid"})
            .Build();
    ASSERT_TRUE(driver.ok() && query.ok()) << JoinStrategyName(s);
    auto engine = Execute(*query, opts);
    ASSERT_TRUE(engine.ok()) << JoinStrategyName(s);
    const std::vector<uint32_t>& lid = engine->columns[0].u32_values;
    const std::vector<uint32_t>& rid = engine->columns[1].u32_values;
    std::vector<Bun> index(lid.size());
    for (size_t i = 0; i < index.size(); ++i) index[i] = {lid[i], rid[i]};
    EXPECT_GT(driver->size(), kN) << JoinStrategyName(s);
    EXPECT_EQ(index, *driver) << JoinStrategyName(s);
    EXPECT_EQ(canon(*driver), reference) << JoinStrategyName(s);
  }
}

TEST(JoinOpTest, ProjectsBothSides) {
  auto orders_rows = RowStore::Make(
      {{"order_id", FieldType::kU32}, {"clerk", FieldType::kChar10}}, 4);
  ASSERT_TRUE(orders_rows.ok());
  const char* clerks[] = {"ann", "bob", "cho", "dee"};
  for (uint32_t i = 0; i < 4; ++i) {
    size_t r = *orders_rows->AppendRow();
    orders_rows->SetU32(r, 0, i);
    orders_rows->SetBytes(r, 1, clerks[i], strlen(clerks[i]));
  }
  Table orders = *Table::FromRowStore(*orders_rows);
  Table items = *Table::FromRowStore(MakeItems(12));  // order = i/3: 0..3

  // price = 10 + item oid identifies the item row of every output row.
  auto plan = QueryBuilder(items)
                  .Join(orders, "order", "order_id")
                  .Project({"price", "qty", "shipmode", "clerk"})
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto cols = Execute(*plan);
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols->num_columns(), 4u);
  ASSERT_EQ(cols->num_rows(), 12u);  // every item matches exactly one order
  EXPECT_EQ(cols->columns[1].name, "qty");
  EXPECT_EQ(cols->columns[1].type, PhysType::kU32);
  EXPECT_EQ(cols->columns[2].type, PhysType::kStr);
  EXPECT_EQ(cols->columns[3].name, "clerk");
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t row = 0; row < 12; ++row) {
    size_t i = static_cast<size_t>(cols->columns[0].f64_values[row] - 10.0);
    EXPECT_EQ(cols->columns[1].u32_values[row], 1 + i % 5);
    EXPECT_EQ(cols->columns[2].str_values[row], modes[i % 4]);
    EXPECT_EQ(cols->columns[3].str_values[row], clerks[i / 3]);
  }
  // Unknown column -> NotFound, at Build().
  EXPECT_EQ(QueryBuilder(items)
                .Join(orders, "order", "order_id")
                .Project({"nope"})
                .Build()
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(JoinOpTest, MultiChunkParallelJoinsAreByteIdentical) {
  // The JoinOp probe path keeps its match buffers, cluster scratch and
  // position lists from chunk to chunk and fills them from pool workers.
  // The MatchesJoinRelationsRowForRow tables (~4 inner rows per key) make
  // tasks outgrow their one-slot-per-probe-row regions, so the spill path
  // runs too. Every build shape x chunk size x join type must give the same
  // bytes at any parallelism, and the right rows: checked against a key ->
  // rid map. The build shapes cover both ways JoinOp names build rows: the
  // unfiltered base table (base OID == chunk position), the base table
  // filtered so its surviving OIDs are not their positions (base-OID build
  // heads), and a join result with two candidate lists (chunk positions,
  // taken through). Against the base-table build, the filtered and
  // join-result probe sides read the probe key through a sparse list.
  constexpr size_t kN = 100000;
  Rng rng(5);
  Table left = MakeKeyedTable(kN / 2, kN / 4, "lid", rng);
  Table right = MakeKeyedTable(kN, kN / 4, "rid", rng);
  auto ids = RowStore::Make({{"right_id", FieldType::kU32}}, kN);
  ASSERT_TRUE(ids.ok());
  for (uint32_t i = 0; i < kN; ++i) ids->SetU32(*ids->AppendRow(), 0, i);
  Table right_ids = *Table::FromRowStore(*ids);
  Table left_ids = ShuffledIds(kN / 2, "left_id", 29);
  std::vector<Bun> build = *right.column_bat(0).ToBuns();
  std::vector<Bun> probe = *left.column_bat(0).ToBuns();
  // Drops rid 0 and a block from the middle: rid = base OID of `right`.
  auto build_filter = [] {
    return Col("rid") >= 1000u && !Between(Col("rid"), 40000u, 59999u);
  };
  auto kept = [](uint32_t rid) {
    return rid >= 1000u && (rid < 40000u || rid > 59999u);
  };

  enum class BuildShape { kBaseTable, kFilteredBaseTable, kJoinResult };
  using Row = std::tuple<uint32_t, uint32_t>;  // (lid, rid)
  struct Shapes {
    ProbeShape probe;
    BuildShape build;
  };
  for (auto [probe_shape, shape] :
       {Shapes{ProbeShape::kBaseTable, BuildShape::kBaseTable},
        Shapes{ProbeShape::kBaseTable, BuildShape::kFilteredBaseTable},
        Shapes{ProbeShape::kBaseTable, BuildShape::kJoinResult},
        Shapes{ProbeShape::kFilteredBaseTable, BuildShape::kBaseTable},
        Shapes{ProbeShape::kJoinResult, BuildShape::kBaseTable}}) {
    const std::string shape_name =
        std::string(ProbeShapeName(probe_shape)) + ", " +
        (shape == BuildShape::kBaseTable           ? "base table"
         : shape == BuildShape::kFilteredBaseTable ? "filtered base table"
                                                   : "join result");
    std::vector<std::vector<uint32_t>> rids_of(kN / 4);
    for (const Bun& b : build) {
      if (shape != BuildShape::kFilteredBaseTable || kept(b.head)) {
        rids_of[b.tail].push_back(b.head);
      }
    }
    for (JoinType jt : {JoinType::kInner, JoinType::kSemi, JoinType::kAnti,
                        JoinType::kLeftOuter}) {
      const bool right_cols = jt == JoinType::kInner ||
                              jt == JoinType::kLeftOuter;
      std::vector<Row> want;
      for (const Bun& p : probe) {
        if (!ProbeKept(probe_shape, p.head)) continue;
        const std::vector<uint32_t>& rids = rids_of[p.tail];
        if (jt == JoinType::kSemi && !rids.empty()) want.emplace_back(p.head, 0);
        if (jt == JoinType::kAnti && rids.empty()) want.emplace_back(p.head, 0);
        if (right_cols) {
          for (uint32_t r : rids) want.emplace_back(p.head, r);
          if (jt == JoinType::kLeftOuter && rids.empty()) {
            want.emplace_back(p.head, 0);
          }
        }
      }
      std::sort(want.begin(), want.end());
      for (JoinStrategy s : {JoinStrategy::kBest, JoinStrategy::kSimpleHash,
                             JoinStrategy::kSortMerge, JoinStrategy::kRadix8}) {
        for (size_t chunk_rows : {SIZE_MAX, size_t{4096}, size_t{10007}}) {
          std::string label = shape_name + " " + JoinTypeName(jt) + " " +
                              JoinStrategyName(s) + " chunk " +
                              std::to_string(chunk_rows);
          std::vector<std::string> cols = {"lid"};
          if (right_cols) cols.push_back("rid");
          QueryBuilder query = ProbeQuery(probe_shape, left, left_ids);
          if (shape == BuildShape::kBaseTable) {
            query.Join(right, "k", "k", jt, s);
          } else {
            QueryBuilder inner(right);
            if (shape == BuildShape::kFilteredBaseTable) {
              inner.Filter(build_filter());
            } else {
              // Every right row matches its one right_ids row, so the build
              // holds all right rows, in radix order.
              inner.Join(right_ids, "rid", "right_id");
            }
            query.Join(std::move(inner), "k", "k", jt, s);
          }
          auto plan = query.Project(cols).Build();
          ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
          std::vector<uint32_t> ref_lid, ref_rid;
          for (size_t par : {1, 2, 8}) {
            PlannerOptions opts;
            opts.profile = MachineProfile::GenericX86();
            opts.exec.parallelism = par;
            opts.exec.scan_chunk_rows = chunk_rows;
            // Keep the join result the probe.
            opts.reorder_joins = probe_shape != ProbeShape::kJoinResult;
            auto got = Execute(*plan, opts);
            ASSERT_TRUE(got.ok()) << label;
            const std::vector<uint32_t>& lid = got->columns[0].u32_values;
            std::vector<uint32_t> rid =
                right_cols ? got->columns[1].u32_values
                           : std::vector<uint32_t>(lid.size(), 0);
            if (par == 1) {
              ref_lid = lid;
              ref_rid = rid;
              std::vector<Row> rows;
              for (size_t i = 0; i < lid.size(); ++i) {
                rows.emplace_back(lid[i], rid[i]);
              }
              std::sort(rows.begin(), rows.end());
              EXPECT_EQ(rows, want) << label;
              if (jt != JoinType::kInner &&
                  probe_shape != ProbeShape::kJoinResult) {
                // Probe order: the scan emits lids ascending.
                EXPECT_TRUE(std::is_sorted(lid.begin(), lid.end())) << label;
              }
            } else {
              EXPECT_EQ(lid, ref_lid) << label << " parallelism " << par;
              EXPECT_EQ(rid, ref_rid) << label << " parallelism " << par;
            }
          }
        }
      }
    }
  }
}

TEST(JoinOpTest, PositionalIsByteIdenticalAcrossParallelism) {
  // Dense unique build keys (a permutation of 0..kN-1) plan the positional
  // join under GenericX86's kBest, and run it under every build shape
  // JoinOp names build rows by: an unfiltered base table, a filtered base
  // table with base-OID heads, and a join result taken through positions.
  // Against the base-table build, the filtered and join-result probe sides
  // read the probe key through a sparse list. Probe keys run past the
  // domain, so anti and left-outer joins see misses. Output must be the
  // same bytes at any parallelism, and the right rows: checked against a
  // key -> rid map.
  constexpr uint32_t kN = 100000;
  Rng rng(23);
  std::vector<uint32_t> keys(kN);
  for (uint32_t i = 0; i < kN; ++i) keys[i] = i;
  Shuffle(keys, rng);
  auto rs = RowStore::Make({{"k", FieldType::kU32}, {"rid", FieldType::kU32}},
                           kN);
  ASSERT_TRUE(rs.ok());
  for (uint32_t i = 0; i < kN; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, keys[i]);
    rs->SetU32(r, 1, i);
  }
  Table right = *Table::FromRowStore(*rs);
  Table left = MakeKeyedTable(kN / 2, kN + kN / 8, "lid", rng);
  auto ids = RowStore::Make({{"right_id", FieldType::kU32}}, kN);
  ASSERT_TRUE(ids.ok());
  for (uint32_t i = 0; i < kN; ++i) ids->SetU32(*ids->AppendRow(), 0, i);
  Table right_ids = *Table::FromRowStore(*ids);
  Table left_ids = ShuffledIds(kN / 2, "left_id", 31);
  std::vector<Bun> probe = *left.column_bat(0).ToBuns();
  auto kept = [](uint32_t rid) {
    return rid >= 1000u && (rid < 40000u || rid > 59999u);
  };

  enum class BuildShape { kBaseTable, kFilteredBaseTable, kJoinResult };
  using Row = std::tuple<uint32_t, uint32_t>;  // (lid, rid)
  struct Shapes {
    ProbeShape probe;
    BuildShape build;
  };
  for (auto [probe_shape, shape] :
       {Shapes{ProbeShape::kBaseTable, BuildShape::kBaseTable},
        Shapes{ProbeShape::kBaseTable, BuildShape::kFilteredBaseTable},
        Shapes{ProbeShape::kBaseTable, BuildShape::kJoinResult},
        Shapes{ProbeShape::kFilteredBaseTable, BuildShape::kBaseTable},
        Shapes{ProbeShape::kJoinResult, BuildShape::kBaseTable}}) {
    const std::string shape_name =
        std::string(ProbeShapeName(probe_shape)) + ", " +
        (shape == BuildShape::kBaseTable           ? "base table"
         : shape == BuildShape::kFilteredBaseTable ? "filtered base table"
                                                   : "join result");
    constexpr uint32_t kNone = UINT32_MAX;
    std::vector<uint32_t> rid_of(kN + kN / 8, kNone);
    for (uint32_t rid = 0; rid < kN; ++rid) {
      if (shape != BuildShape::kFilteredBaseTable || kept(rid)) {
        rid_of[keys[rid]] = rid;
      }
    }
    for (JoinType jt : {JoinType::kInner, JoinType::kSemi, JoinType::kAnti,
                        JoinType::kLeftOuter}) {
      const bool right_cols = jt == JoinType::kInner ||
                              jt == JoinType::kLeftOuter;
      std::vector<Row> want;
      for (const Bun& p : probe) {
        if (!ProbeKept(probe_shape, p.head)) continue;
        const bool hit = rid_of[p.tail] != kNone;
        if (jt == JoinType::kSemi && hit) want.emplace_back(p.head, 0);
        if (jt == JoinType::kAnti && !hit) want.emplace_back(p.head, 0);
        if (right_cols && (hit || jt == JoinType::kLeftOuter)) {
          want.emplace_back(p.head, hit ? rid_of[p.tail] : 0);
        }
      }
      std::sort(want.begin(), want.end());
      for (size_t chunk_rows : {SIZE_MAX, size_t{4096}, size_t{10007}}) {
        std::string label = shape_name + " " + JoinTypeName(jt) + " chunk " +
                            std::to_string(chunk_rows);
        std::vector<std::string> cols = {"lid"};
        if (right_cols) cols.push_back("rid");
        QueryBuilder query = ProbeQuery(probe_shape, left, left_ids);
        if (shape == BuildShape::kBaseTable) {
          query.Join(right, "k", "k", jt);
        } else {
          QueryBuilder inner(right);
          if (shape == BuildShape::kFilteredBaseTable) {
            inner.Filter(Col("rid") >= 1000u &&
                         !Between(Col("rid"), 40000u, 59999u));
          } else {
            inner.Join(right_ids, "rid", "right_id");
          }
          query.Join(std::move(inner), "k", "k", jt);
        }
        auto plan = query.Project(cols).Build();
        ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
        std::vector<uint32_t> ref_lid, ref_rid;
        for (size_t par : {1, 2, 8}) {
          PlannerOptions opts;
          opts.profile = MachineProfile::GenericX86();
          opts.exec.parallelism = par;
          opts.exec.scan_chunk_rows = chunk_rows;
          // Keep the join result the probe.
          opts.reorder_joins = probe_shape != ProbeShape::kJoinResult;
          auto physical = Planner(opts).Lower(*plan);
          ASSERT_TRUE(physical.ok()) << label;
          auto got = physical->Execute();
          ASSERT_TRUE(got.ok()) << label;
          EXPECT_TRUE(physical->joins().back().plan.positional.has_value())
              << label;
          const std::vector<uint32_t>& lid = got->columns[0].u32_values;
          std::vector<uint32_t> rid =
              right_cols ? got->columns[1].u32_values
                         : std::vector<uint32_t>(lid.size(), 0);
          if (par == 1) {
            ref_lid = lid;
            ref_rid = rid;
            std::vector<Row> rows;
            for (size_t i = 0; i < lid.size(); ++i) {
              rows.emplace_back(lid[i], rid[i]);
            }
            std::sort(rows.begin(), rows.end());
            EXPECT_EQ(rows, want) << label;
          } else {
            EXPECT_EQ(lid, ref_lid) << label << " parallelism " << par;
            EXPECT_EQ(rid, ref_rid) << label << " parallelism " << par;
          }
        }
      }
    }
  }
}

TEST(JoinOpTest, LeftOuterNullsReadTypeDefaultsPastFilteredBuildRowZero) {
  // A filtered build table joins on its base OIDs; a null row names build
  // row 0, which the filter removed. Every right column of a null row must
  // still read its type default, never row 0's values.
  auto build_rows = RowStore::Make({{"bk", FieldType::kU32},
                                    {"bv", FieldType::kU32},
                                    {"bp", FieldType::kF64},
                                    {"bs", FieldType::kChar10}},
                                   64);
  ASSERT_TRUE(build_rows.ok());
  const char* words[] = {"zero", "one", "two", "three"};
  for (uint32_t i = 0; i < 64; ++i) {
    size_t r = *build_rows->AppendRow();
    build_rows->SetU32(r, 0, i);
    build_rows->SetU32(r, 1, 100 + i);
    build_rows->SetF64(r, 2, 0.5 + i);
    build_rows->SetBytes(r, 3, words[i % 4], strlen(words[i % 4]));
  }
  Table build = *Table::FromRowStore(*build_rows);
  // Probe keys 0..79: key 0's build row is filtered out, keys >= 64 have
  // none.
  Rng rng(17);
  Table probe = MakeKeyedTable(80, /*key_range=*/0, "pid", rng);
  for (JoinStrategy s : {JoinStrategy::kSimpleHash, JoinStrategy::kSortMerge,
                         JoinStrategy::kRadix8}) {
    for (size_t chunk_rows : {SIZE_MAX, size_t{7}}) {
      std::string label =
          std::string(JoinStrategyName(s)) + " chunk " +
          std::to_string(chunk_rows);
      QueryBuilder inner(build);
      inner.Filter(Col("bk") >= 1u);
      auto plan = QueryBuilder(probe)
                      .Join(std::move(inner), "k", "bk", JoinType::kLeftOuter,
                            s)
                      .Project({"pid", "bv", "bp", "bs"})
                      .Build();
      ASSERT_TRUE(plan.ok()) << label;
      PlannerOptions opts;
      opts.profile = MachineProfile::GenericX86();
      opts.exec.scan_chunk_rows = chunk_rows;
      auto got = Execute(*plan, opts);
      ASSERT_TRUE(got.ok()) << label;
      ASSERT_EQ(got->num_rows(), 80u) << label;
      for (size_t i = 0; i < 80; ++i) {
        uint32_t pid = got->columns[0].u32_values[i];
        ASSERT_EQ(pid, i) << label;  // probe order
        const bool matched = pid >= 1 && pid < 64;
        EXPECT_EQ(got->columns[1].u32_values[i], matched ? 100 + pid : 0u)
            << label << " pid " << pid;
        EXPECT_EQ(got->columns[2].f64_values[i], matched ? 0.5 + pid : 0.0)
            << label << " pid " << pid;
        EXPECT_EQ(got->columns[3].str_values[i],
                  matched ? words[pid % 4] : "")
            << label << " pid " << pid;
      }
    }
  }
}

TEST(JoinOpTest, ArenaAllocationsDoNotGrowWithChunkCount) {
  // A PK-FK join (every probe row matches one inner row) keeps its probe
  // buffers across chunks: once the first chunk has sized them, further
  // chunks allocate nothing from the arena, so 16 probe chunks cost about
  // what 4 do. The dense unique inner keys plan kBest as the positional
  // join; it and the B = 0 hash join read the probe keys in place, the
  // radix-clustered kPhashL2 clusters a BUN copy.
  constexpr size_t kProbe = 400000, kInner = 100000;
  Rng rng(11);
  Table fact = MakeKeyedTable(kProbe, kInner, "fid", rng);
  Table dim = MakeKeyedTable(kInner, /*key_range=*/0, "did", rng);
  for (JoinStrategy s : {JoinStrategy::kPhashL2, JoinStrategy::kBest,
                         JoinStrategy::kSimpleHash}) {
    for (size_t par : {1, 2}) {
      uint64_t allocs[2];
      for (size_t chunks : {4, 16}) {
        PlannerOptions opts;
        opts.profile = MachineProfile::GenericX86();
        opts.exec.parallelism = par;
        opts.exec.scan_chunk_rows = kProbe / chunks;
        auto plan = QueryBuilder(fact)
                        .Join(dim, "k", "k", s)
                        .Project({"fid", "did"})
                        .Build();
        ASSERT_TRUE(plan.ok());
        auto physical = Planner(opts).Lower(*plan);
        ASSERT_TRUE(physical.ok());
        arena::ArenaStats before = arena::Stats();
        auto got = physical->Execute();
        arena::ArenaStats after = arena::Stats();
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->num_rows(), kProbe);
        const JoinPlan& ran = physical->joins()[0].plan;
        EXPECT_EQ(ran.positional.has_value(), s == JoinStrategy::kBest)
            << JoinStrategyName(s);
        EXPECT_EQ(ran.bits > 0, s == JoinStrategy::kPhashL2)
            << JoinStrategyName(s);
        allocs[chunks == 16] = (after.small_allocs - before.small_allocs) +
                               (after.large_allocs - before.large_allocs);
      }
      EXPECT_LT(
          std::max(allocs[0], allocs[1]) - std::min(allocs[0], allocs[1]), 12u)
          << JoinStrategyName(s) << ", parallelism " << par << ": "
          << allocs[0] << " arena allocations at 4 probe chunks, " << allocs[1]
          << " at 16";
    }
  }
}

// Every row of `chunk` rendered as one string of all its column values.
std::vector<std::string> RenderRows(const Chunk& chunk) {
  std::vector<std::string> rows(chunk.rows);
  for (size_t c = 0; c < chunk.cols.size(); ++c) {
    MaterializedColumn col;
    col.type = chunk.TypeOf(c);
    CCDB_CHECK(chunk.AppendTo(c, &col).ok());
    CCDB_CHECK(col.size() == chunk.rows);
    for (size_t r = 0; r < chunk.rows; ++r) {
      switch (col.type) {
        case PhysType::kStr: rows[r] += col.str_values[r]; break;
        case PhysType::kF64: rows[r] += std::to_string(col.f64_values[r]); break;
        case PhysType::kI64: rows[r] += std::to_string(col.i64_values[r]); break;
        default: rows[r] += std::to_string(col.u32_values[r]); break;
      }
      rows[r] += "|";
    }
  }
  return rows;
}

// A 20-row chunk of every column kind: lazy columns over a dense and a
// sparse candidate list of one base table, and owned columns of each type.
Chunk MakeMixedChunk(const Table& t) {
  constexpr size_t kRows = 20;
  Chunk chunk;
  chunk.rows = kRows;
  std::vector<oid_t> scattered(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    scattered[i] = static_cast<oid_t>((i * 13 + 5) % t.num_rows());
  }
  chunk.cands = {Candidates::Dense(7, kRows),
                 Candidates::FromOids(std::move(scattered))};
  for (auto [name, slot] : {std::pair<const char*, size_t>{"qty", 0},
                            {"price", 0},
                            {"shipmode", 1},
                            {"order", 1}}) {
    ChunkColumn col;
    col.name = name;
    col.base = &t;
    col.base_col = *t.schema().FieldIndex(name);
    col.cand_slot = slot;
    chunk.cols.push_back(std::move(col));
  }
  std::vector<uint32_t> u32(kRows);
  std::vector<int64_t> i64(kRows);
  std::vector<double> f64(kRows);
  std::vector<std::string> str(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    u32[i] = static_cast<uint32_t>(1000 + i);
    i64[i] = -static_cast<int64_t>(i) * 7;
    f64[i] = 0.25 * static_cast<double>(i);
    str[i] = "s";
    str[i] += std::to_string(i);
  }
  for (auto& [name, column] :
       std::vector<std::pair<const char*, Column>>{{"o_u32", Column::U32(u32)},
                                                   {"o_i64", Column::I64(i64)},
                                                   {"o_f64", Column::F64(f64)},
                                                   {"o_str", Column::Str(str)}}) {
    ChunkColumn col;
    col.name = name;
    col.owned = std::make_shared<const Column>(std::move(column));
    chunk.cols.push_back(std::move(col));
  }
  return chunk;
}

TEST(ChunkTakeTest, EveryPositionShapeMatchesPerRowReference) {
  Table t = *Table::FromRowStore(MakeItems(40));
  Chunk chunk = MakeMixedChunk(t);
  const std::vector<std::string> ref = RenderRows(chunk);
  const std::vector<std::pair<const char*, std::vector<uint32_t>>> cases = {
      {"dense", {5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
      {"sparse", {19, 2, 11, 0, 7}},
      {"duplicate", {3, 3, 3, 0, 19, 19}},
      {"empty", {}},
      {"reversed", {19, 18, 17, 16, 15, 14, 13, 12, 11, 10,
                    9,  8,  7,  6,  5,  4,  3,  2,  1,  0}},
  };
  for (const auto& [label, positions] : cases) {
    auto taken = chunk.Take(positions);
    ASSERT_TRUE(taken.ok()) << label;
    ASSERT_EQ(taken->rows, positions.size()) << label;
    ASSERT_EQ(taken->cands.size(), chunk.cands.size()) << label;
    for (size_t s = 0; s < chunk.cands.size(); ++s) {
      ASSERT_EQ(taken->cands[s].count, positions.size()) << label;
      for (size_t i = 0; i < positions.size(); ++i) {
        EXPECT_EQ(taken->cands[s].Get(i), chunk.cands[s].Get(positions[i]))
            << label << " slot " << s << " row " << i;
      }
    }
    std::vector<std::string> got = RenderRows(*taken);
    for (size_t i = 0; i < positions.size(); ++i) {
      EXPECT_EQ(got[i], ref[positions[i]]) << label << " row " << i;
    }
  }
}

TEST(ChunkTakeTest, IdentityPositionsShareTheInput) {
  Table t = *Table::FromRowStore(MakeItems(40));
  Chunk chunk = MakeMixedChunk(t);
  std::vector<uint32_t> identity(chunk.rows), reversed(chunk.rows);
  for (size_t i = 0; i < chunk.rows; ++i) {
    identity[i] = static_cast<uint32_t>(i);
    reversed[i] = static_cast<uint32_t>(chunk.rows - 1 - i);
  }
  auto same = chunk.Take(identity);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(RenderRows(*same), RenderRows(chunk));
  ASSERT_EQ(same->cands.size(), 2u);
  EXPECT_TRUE(same->cands[0].dense());
  EXPECT_EQ(same->cands[0].base, chunk.cands[0].base);
  EXPECT_EQ(same->cands[0].count, chunk.cands[0].count);
  EXPECT_EQ(same->cands[1].oids.get(), chunk.cands[1].oids.get());
  for (size_t c = 0; c < chunk.cols.size(); ++c) {
    EXPECT_EQ(same->cols[c].owned.get(), chunk.cols[c].owned.get())
        << chunk.cols[c].name;
  }
  // A permutation of the same length is not the identity: it copies.
  auto copied = chunk.Take(reversed);
  ASSERT_TRUE(copied.ok());
  EXPECT_NE(copied->cands[1].oids.get(), chunk.cands[1].oids.get());
  for (size_t c = 0; c < chunk.cols.size(); ++c) {
    if (chunk.cols[c].lazy()) continue;
    EXPECT_NE(copied->cols[c].owned.get(), chunk.cols[c].owned.get())
        << chunk.cols[c].name;
  }
}

TEST(ChunkTakeTest, ConcatOfTakenPartsRebuildsTheChunk) {
  // Three takes split the chunk; concatenating them rebuilds every column,
  // the owned ones of each value type among them.
  Table t = *Table::FromRowStore(MakeItems(40));
  Chunk chunk = MakeMixedChunk(t);
  std::vector<Chunk> parts;
  for (auto [lo, hi] : {std::pair<uint32_t, uint32_t>{0, 7}, {7, 8}, {8, 20}}) {
    std::vector<uint32_t> positions;
    for (uint32_t i = lo; i < hi; ++i) positions.push_back(i);
    auto part = chunk.Take(positions);
    ASSERT_TRUE(part.ok());
    parts.push_back(*std::move(part));
  }
  auto whole = ConcatChunks(std::move(parts));
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->rows, chunk.rows);
  ASSERT_EQ(whole->cols.size(), chunk.cols.size());
  for (size_t c = 0; c < chunk.cols.size(); ++c) {
    EXPECT_EQ(whole->cols[c].lazy(), chunk.cols[c].lazy())
        << chunk.cols[c].name;
  }
  EXPECT_EQ(RenderRows(*whole), RenderRows(chunk));
}

TEST(ChunkTakeTest, WireFrameRoundTripsEveryColumnKind) {
  // Lazy columns over a dense and a sparse candidate list, an encoded string
  // column and owned u32/i64/f64/str columns all come back as owned columns
  // holding the same values; the rebuilt chunk serializes to the same frame.
  Table t = *Table::FromRowStore(MakeItems(40));
  Chunk chunk = MakeMixedChunk(t);
  auto frame = SerializeChunk(chunk);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  auto back = DeserializeChunk(*frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->rows, chunk.rows);
  ASSERT_EQ(back->cols.size(), chunk.cols.size());
  for (size_t c = 0; c < chunk.cols.size(); ++c) {
    EXPECT_EQ(back->cols[c].name, chunk.cols[c].name);
    EXPECT_EQ(back->TypeOf(c), chunk.TypeOf(c)) << chunk.cols[c].name;
  }
  EXPECT_EQ(RenderRows(*back), RenderRows(chunk));
  auto again = SerializeChunk(*back);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *frame);
}

TEST(JoinOpTest, LeftOuterNullsReadTypeDefaultsOnAggregateInner) {
  // The inner is a GroupByAgg output: owned u32 keys and maxima, i64 sums
  // and counts, f64 averages. Probe keys 14..19 have no group, so their
  // right columns read 0, 0 and 0.0.
  Table items = *Table::FromRowStore(MakeItems(40));  // order = row / 3
  Rng rng(23);
  Table probe = MakeKeyedTable(20, /*key_range=*/0, "pid", rng);
  for (JoinStrategy s : {JoinStrategy::kSimpleHash, JoinStrategy::kSortMerge,
                         JoinStrategy::kRadix8}) {
    QueryBuilder inner(items);
    inner.GroupByAgg({"order"}, {Agg::Sum("qty"), Agg::Count(),
                                 Agg::Avg("qty"), Agg::Max("qty")});
    auto plan = QueryBuilder(probe)
                    .Join(std::move(inner), "k", "order",
                          JoinType::kLeftOuter, s)
                    .Project({"pid", "sum", "count", "avg", "max"})
                    .Build();
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    PlannerOptions opts;
    opts.profile = MachineProfile::GenericX86();
    auto got = Execute(*plan, opts);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(got->num_rows(), 20u) << JoinStrategyName(s);
    for (size_t r = 0; r < 20; ++r) {
      const uint32_t pid = got->columns[0].u32_values[r];
      ASSERT_EQ(pid, r) << JoinStrategyName(s);  // probe order
      int64_t sum = 0, count = 0;
      uint32_t max = 0;
      for (uint32_t i = 3 * pid; i < std::min<uint32_t>(3 * pid + 3, 40); ++i) {
        const uint32_t qty = 1 + i % 5;
        sum += qty;
        ++count;
        max = std::max(max, qty);
      }
      const std::string label =
          std::string(JoinStrategyName(s)) + " pid " + std::to_string(pid);
      EXPECT_EQ(got->columns[1].i64_values[r], sum) << label;
      EXPECT_EQ(got->columns[2].i64_values[r], count) << label;
      EXPECT_EQ(got->columns[3].f64_values[r],
                count == 0 ? 0.0 : static_cast<double>(sum) / count)
          << label;
      EXPECT_EQ(got->columns[4].u32_values[r], max) << label;
    }
  }
}

}  // namespace
}  // namespace ccdb
