// Exchange operators (dist/exchange.h) and the repartition-vs-broadcast
// planner: partitioned plans must be byte-identical to their non-exchange
// equivalents (plans below end in a total OrderBy over unique keys, so
// "identical" means exact row order, not just row content), the wire format
// must round-trip chunks losslessly, and cancellation must unwind every
// pump/worker thread without hangs (ASan/TSan runs verify cleanliness).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dist/wire.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "model/planner.h"

namespace ccdb {
namespace {

/// Fact rows: fk in [0, key_mod) (or unique when key_mod == 0), a u32
/// value, an f64 price, and a low-cardinality string (encoded; exercises
/// string routing and the wire's string payload).
RowStore MakeFactRows(size_t n, uint32_t key_mod) {
  auto rs = RowStore::Make(
      {
          {"fk", FieldType::kU32},
          {"val", FieldType::kU32},
          {"price", FieldType::kF64},
          {"mode", FieldType::kChar10},
      },
      n);
  CCDB_CHECK(rs.ok());
  const char* modes[] = {"MAIL", "AIR", "TRUCK", "SHIP"};
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, key_mod == 0 ? static_cast<uint32_t>(i)
                                  : static_cast<uint32_t>(i * 7 % key_mod));
    rs->SetU32(r, 1, static_cast<uint32_t>(i % 97));
    rs->SetF64(r, 2, 0.25 * static_cast<double>(i % 1000));
    const char* m = modes[i % 4];
    rs->SetBytes(r, 3, m, strlen(m));
  }
  return *std::move(rs);
}

Table MakeFact(size_t n, uint32_t key_mod) {
  return *Table::FromRowStore(MakeFactRows(n, key_mod));
}

/// Dimension: unique id 0..n-1 plus three u32 payload columns (wide enough
/// that repartition beats broadcast once the dimension is large).
Table MakeDim(size_t n) {
  auto rs = RowStore::Make(
      {
          {"id", FieldType::kU32},
          {"bonus", FieldType::kU32},
          {"w1", FieldType::kU32},
          {"w2", FieldType::kU32},
      },
      n);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetU32(r, 1, static_cast<uint32_t>(i * 13 % 51));
    rs->SetU32(r, 2, static_cast<uint32_t>(i % 7));
    rs->SetU32(r, 3, static_cast<uint32_t>(i % 11));
  }
  return *Table::FromRowStore(*std::move(rs));
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    SCOPED_TRACE("column " + want.columns[c].name);
    EXPECT_EQ(got.columns[c].name, want.columns[c].name);
    EXPECT_EQ(got.columns[c].type, want.columns[c].type);
    EXPECT_EQ(got.columns[c].u32_values, want.columns[c].u32_values);
    EXPECT_EQ(got.columns[c].i64_values, want.columns[c].i64_values);
    EXPECT_EQ(got.columns[c].f64_values, want.columns[c].f64_values);
    EXPECT_EQ(got.columns[c].str_values, want.columns[c].str_values);
  }
}

/// Join + group-by + order-by over the fact/dim pair: every layer an
/// exchange can split. Group keys are unique after aggregation, so OrderBy
/// yields a total order and results compare exactly.
StatusOr<LogicalPlan> JoinAggPlan(const Table& fact, const Table& dim) {
  return QueryBuilder(fact)
      .Join(dim, "fk", "id")
      .GroupByAgg({"mode"}, {AggSpec::Sum("val"), AggSpec::Count(),
                             AggSpec::Max("bonus")})
      .OrderBy("mode")
      .Build();
}

/// Join-only plan ordered by a unique probe key (key_mod == 0 facts).
StatusOr<LogicalPlan> JoinOnlyPlan(const Table& fact, const Table& dim,
                                   JoinType type = JoinType::kInner) {
  return QueryBuilder(fact)
      .Join(dim, "fk", "id", type)
      .OrderBy("fk")
      .Build();
}

PlannerOptions ExchangeOptionsFor(size_t partitions, size_t parallelism,
                                  ExchangePolicy policy,
                                  ExchangeStrategy strategy) {
  PlannerOptions po;
  po.exec.parallelism = parallelism;
  po.exec.partitions = partitions;
  po.exec.exchange = policy;
  po.exec.exchange_strategy = strategy;
  return po;
}

QueryResult Reference(const LogicalPlan& plan) {
  PlannerOptions po;
  po.exec.parallelism = 1;
  po.exec.exchange = ExchangePolicy::kOff;
  auto r = Execute(plan, po);
  CCDB_CHECK(r.ok());
  return *std::move(r);
}

TEST(ExchangeTest, JoinAggByteIdentityAcrossPartitionsAndParallelism) {
  Table fact = MakeFact(2400, 60);
  Table dim = MakeDim(60);
  auto plan = JoinAggPlan(fact, dim);
  ASSERT_TRUE(plan.ok());
  QueryResult want = Reference(*plan);
  ASSERT_GT(want.num_rows(), 0u);
  for (size_t partitions : {1, 2, 4}) {
    for (size_t parallelism : {1, 2, 8}) {
      SCOPED_TRACE("partitions " + std::to_string(partitions) +
                   " parallelism " + std::to_string(parallelism));
      auto got = Execute(*plan,
                         ExchangeOptionsFor(partitions, parallelism,
                                            ExchangePolicy::kForce,
                                            ExchangeStrategy::kNone));
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectSameResult(*got, want);
    }
  }
}

TEST(ExchangeTest, JoinByteIdentityUnderBothStrategies) {
  Table fact = MakeFact(1800, /*key_mod=*/0);  // unique fk: total order
  Table dim = MakeDim(1800);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    auto plan = JoinOnlyPlan(fact, dim, type);
    ASSERT_TRUE(plan.ok());
    QueryResult want = Reference(*plan);
    for (ExchangeStrategy strategy :
         {ExchangeStrategy::kRepartition, ExchangeStrategy::kBroadcast}) {
      for (size_t partitions : {2, 4}) {
        SCOPED_TRACE(std::string("type ") + JoinTypeName(type) +
                     " strategy " +
                     (strategy == ExchangeStrategy::kBroadcast
                          ? "broadcast"
                          : "repartition") +
                     " partitions " + std::to_string(partitions));
        auto got = Execute(*plan, ExchangeOptionsFor(partitions, 2,
                                                     ExchangePolicy::kForce,
                                                     strategy));
        ASSERT_TRUE(got.ok()) << got.status().message();
        ExpectSameResult(*got, want);
      }
    }
  }
}

TEST(ExchangeTest, PartitionsRunThePositionalJoinTheyArePricedAt) {
  // The dim's keys are unique over 0..n-1, so the exchange decision prices
  // each partition's join positionally, as the local plan is priced, and
  // every partition's JoinOp runs it: a broadcast inner holds every key, a
  // repartitioned one a subset that still resolves through base OIDs.
  Table fact = MakeFact(40000, 20000);
  Table dim = MakeDim(20000);
  auto plan = JoinAggPlan(fact, dim);
  ASSERT_TRUE(plan.ok());
  QueryResult want = Reference(*plan);
  for (ExchangeStrategy strategy :
       {ExchangeStrategy::kRepartition, ExchangeStrategy::kBroadcast}) {
    SCOPED_TRACE(strategy == ExchangeStrategy::kBroadcast ? "broadcast"
                                                          : "repartition");
    PlannerOptions po =
        ExchangeOptionsFor(2, 2, ExchangePolicy::kForce, strategy);
    po.profile = MachineProfile::GenericX86();
    auto physical = Planner(po).Lower(*plan);
    ASSERT_TRUE(physical.ok()) << physical.status().message();
    auto got = physical->Execute();
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSameResult(*got, want);
    EXPECT_FALSE(physical->exchanges().empty());
    const JoinNodeInfo& j = physical->joins()[0];
    EXPECT_TRUE(j.estimated_positional);
    EXPECT_TRUE(j.plan.positional.has_value());
  }
}

TEST(ExchangeTest, PartitionsOneAndDisabledStayExchangeFree) {
  Table fact = MakeFact(600, 20);
  Table dim = MakeDim(20);
  auto plan = JoinAggPlan(fact, dim);
  ASSERT_TRUE(plan.ok());
  QueryResult want = Reference(*plan);

  // partitions == 1: no exchange nodes at all, identical output.
  Planner p1(ExchangeOptionsFor(1, 2, ExchangePolicy::kAuto,
                                ExchangeStrategy::kNone));
  auto phys1 = p1.Lower(*plan);
  ASSERT_TRUE(phys1.ok());
  EXPECT_TRUE(phys1->exchanges().empty());
  auto r1 = phys1->Execute();
  ASSERT_TRUE(r1.ok());
  ExpectSameResult(*r1, want);

  // partitions > 1 but policy off: same story.
  Planner poff(ExchangeOptionsFor(4, 2, ExchangePolicy::kOff,
                                  ExchangeStrategy::kNone));
  auto physoff = poff.Lower(*plan);
  ASSERT_TRUE(physoff.ok());
  EXPECT_TRUE(physoff->exchanges().empty());
  auto roff = physoff->Execute();
  ASSERT_TRUE(roff.ok());
  ExpectSameResult(*roff, want);
}

TEST(ExchangeTest, EmptyAndSingleRowInputs) {
  Table dim = MakeDim(8);
  for (size_t rows : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("fact rows " + std::to_string(rows));
    Table fact = MakeFact(rows, 0);
    auto plan = JoinOnlyPlan(fact, dim);
    ASSERT_TRUE(plan.ok());
    QueryResult want = Reference(*plan);
    auto got = Execute(*plan,
                       ExchangeOptionsFor(4, 2, ExchangePolicy::kForce,
                                          ExchangeStrategy::kNone));
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSameResult(*got, want);

    auto agg = JoinAggPlan(fact, dim);
    ASSERT_TRUE(agg.ok());
    QueryResult want_agg = Reference(*agg);
    auto got_agg = Execute(*agg,
                           ExchangeOptionsFor(4, 2, ExchangePolicy::kForce,
                                              ExchangeStrategy::kNone));
    ASSERT_TRUE(got_agg.ok()) << got_agg.status().message();
    ExpectSameResult(*got_agg, want_agg);
  }
}

TEST(ExchangeTest, SkewedKeysAllLandInOnePartition) {
  // Every fact row carries the same key: one partition does all the join
  // work, the others see only the zero-row layout seed.
  Table fact = MakeFact(900, 1);
  Table dim = MakeDim(4);
  auto plan = JoinAggPlan(fact, dim);
  ASSERT_TRUE(plan.ok());
  QueryResult want = Reference(*plan);
  for (ExchangeStrategy strategy :
       {ExchangeStrategy::kRepartition, ExchangeStrategy::kBroadcast}) {
    auto got = Execute(*plan, ExchangeOptionsFor(4, 2, ExchangePolicy::kForce,
                                                 strategy));
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSameResult(*got, want);
  }
}

TEST(ExchangeTest, PlannerPicksBroadcastOnlyWhenStrictlyCheaper) {
  Table fact = MakeFact(2400, 8);
  Table small_dim = MakeDim(8);
  Table big_dim = MakeDim(2400);

  // Tiny inner: N * |R| bytes is far below |L| + |R| -> broadcast.
  auto cheap = JoinOnlyPlan(fact, small_dim);
  ASSERT_TRUE(cheap.ok());
  Planner pb(ExchangeOptionsFor(2, 2, ExchangePolicy::kForce,
                                ExchangeStrategy::kNone));
  auto phys_b = pb.Lower(*cheap);
  ASSERT_TRUE(phys_b.ok());
  ASSERT_EQ(phys_b->exchanges().size(), 1u);
  EXPECT_EQ(phys_b->exchanges()[0].strategy, ExchangeStrategy::kBroadcast);
  EXPECT_LT(phys_b->exchanges()[0].broadcast_bytes,
            phys_b->exchanges()[0].repartition_bytes);

  // Inner as large as the probe, at 4 partitions: replicating it 4x moves
  // strictly more bytes than hashing both sides once -> repartition.
  Table fact_eq = MakeFact(2400, 0);
  auto costly = JoinOnlyPlan(fact_eq, big_dim);
  ASSERT_TRUE(costly.ok());
  Planner pr(ExchangeOptionsFor(4, 2, ExchangePolicy::kForce,
                                ExchangeStrategy::kNone));
  auto phys_r = pr.Lower(*costly);
  ASSERT_TRUE(phys_r.ok());
  ASSERT_EQ(phys_r->exchanges().size(), 1u);
  EXPECT_EQ(phys_r->exchanges()[0].strategy, ExchangeStrategy::kRepartition);
  EXPECT_GE(phys_r->exchanges()[0].broadcast_bytes,
            phys_r->exchanges()[0].repartition_bytes);

  // Predicted and measured transfer bytes surface per exchange node.
  auto res = phys_r->Execute();
  ASSERT_TRUE(res.ok());
  EXPECT_GT(phys_r->exchanges()[0].predicted_transfer_bytes, 0.0);
  EXPECT_GT(phys_r->exchanges()[0].measured_transfer_bytes, 0u);
  std::string report = phys_r->ExplainCosts();
  EXPECT_NE(report.find("Exchange(repartition"), std::string::npos) << report;
  EXPECT_NE(report.find("xfer pred"), std::string::npos) << report;
}

TEST(ExchangeTest, WireFormatRoundTripsChunks) {
  Table fact = MakeFact(257, 16);  // odd size: exercises partial chunks
  ScanOp scan(&fact, /*chunk_rows=*/100);
  ASSERT_TRUE(scan.Open().ok());
  Chunk chunk;
  size_t chunks = 0;
  while (true) {
    auto more = scan.Next(&chunk);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++chunks;
    auto frame = SerializeChunk(chunk);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    auto back = DeserializeChunk(*frame);
    ASSERT_TRUE(back.ok()) << back.status().message();
    ASSERT_EQ(back->rows, chunk.rows);
    ASSERT_EQ(back->cols.size(), chunk.cols.size());
    for (size_t c = 0; c < chunk.cols.size(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      EXPECT_EQ(back->cols[c].name, chunk.cols[c].name);
      switch (chunk.TypeOf(c)) {
        case PhysType::kF64:
          EXPECT_EQ(*back->GatherF64(c), *chunk.GatherF64(c));
          break;
        case PhysType::kStr:
          EXPECT_EQ(*back->GatherStr(c), *chunk.GatherStr(c));
          break;
        case PhysType::kI64:
          EXPECT_EQ(*back->GatherI64(c), *chunk.GatherI64(c));
          break;
        default:
          EXPECT_EQ(*back->GatherU32(c), *chunk.GatherU32(c));
          break;
      }
    }
  }
  scan.Close();
  EXPECT_EQ(chunks, 3u);

  // Corrupt frames are rejected, not crashed on.
  auto frame = SerializeChunk(Chunk{});
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> truncated(*frame);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(DeserializeChunk(truncated).ok());
}

TEST(ExchangeTest, SerializedTransportMatchesInProcess) {
  Table fact = MakeFact(1200, 30);
  Table dim = MakeDim(30);
  // Group on a u32 key: the wire decodes encoded string columns to plain
  // strings (dist/wire.h), and GroupByAggOp groups encoded strings by
  // their dictionary codes — a documented limit of the serialized stub.
  auto plan = QueryBuilder(fact)
                  .Join(dim, "fk", "id")
                  .GroupByAgg({"val"}, {AggSpec::Sum("bonus"),
                                        AggSpec::Count()})
                  .OrderBy("val")
                  .Build();
  ASSERT_TRUE(plan.ok());
  QueryResult want = Reference(*plan);
  PlannerOptions po = ExchangeOptionsFor(2, 2, ExchangePolicy::kForce,
                                         ExchangeStrategy::kNone);
  po.exec.serialize_exchange = true;
  auto got = Execute(*plan, po);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ExpectSameResult(*got, want);
}

TEST(ExchangeTest, CancelBeforeAndDuringExchange) {
  Table fact = MakeFact(4000, 50);
  Table dim = MakeDim(50);
  auto plan = JoinAggPlan(fact, dim);
  ASSERT_TRUE(plan.ok());
  PlannerOptions po = ExchangeOptionsFor(4, 2, ExchangePolicy::kForce,
                                         ExchangeStrategy::kNone);

  // Pre-cancelled: fails fast with kCancelled, all threads joined by the
  // time Execute returns (Close is unconditional on the error path).
  {
    ScheduleContext sched;
    sched.cancelled.store(true);
    po.exec.sched = &sched;
    auto r = Execute(*plan, po);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }

  // Raced mid-flight: either the query finished first or it reports
  // kCancelled; never a hang or a leak (ASan/TSan runs check the rest).
  for (int lag_us : {0, 50, 500}) {
    ScheduleContext sched;
    po.exec.sched = &sched;
    std::thread canceller([&sched, lag_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(lag_us));
      sched.cancelled.store(true);
    });
    auto r = Execute(*plan, po);
    canceller.join();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
  }

  // Expired deadline behaves like cancel, with its own code.
  {
    ScheduleContext sched;
    sched.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
    po.exec.sched = &sched;
    auto r = Execute(*plan, po);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(ExchangeTest, ConcurrentExchangeHammer) {
  // Two sessions hammer partitioned plans concurrently while a third
  // randomly cancels one of them — the TSan regression surface for the
  // channel, collector, and thread-lifecycle synchronization.
  Table fact = MakeFact(1500, 40);
  Table dim = MakeDim(40);
  auto plan = JoinAggPlan(fact, dim);
  ASSERT_TRUE(plan.ok());
  QueryResult want = Reference(*plan);

  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    ScheduleContext sched;  // thread A runs cancellable
    std::atomic<int> failures{0};
    std::thread ta([&] {
      PlannerOptions po = ExchangeOptionsFor(4, 4, ExchangePolicy::kForce,
                                             ExchangeStrategy::kNone);
      po.exec.sched = &sched;
      auto r = Execute(*plan, po);
      if (!r.ok() && r.status().code() != StatusCode::kCancelled) {
        failures.fetch_add(1);
      }
    });
    std::thread tb([&] {
      PlannerOptions po = ExchangeOptionsFor(2, 4, ExchangePolicy::kForce,
                                             ExchangeStrategy::kBroadcast);
      auto r = Execute(*plan, po);
      if (!r.ok()) {
        failures.fetch_add(1);
        return;
      }
      // The uncancelled session must still be byte-identical.
      if (r->num_rows() != want.num_rows()) failures.fetch_add(1);
    });
    if (round % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      sched.cancelled.store(true);
    }
    ta.join();
    tb.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace ccdb
