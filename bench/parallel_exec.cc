// Morsel-parallel execution micro-benchmark: the partitioned-join and
// group-by paths at parallelism 1 vs all hardware threads, plus a fig9-style
// radix-cluster smoke — the per-commit perf numbers CI tracks.
//
// With --json=PATH the results are also written as BENCH_ci.json for the CI
// artifact (see ci.sh). Speedups are reported, not asserted: on a 1-core
// runner parallel == serial and that is fine.
//
//   --full        4M-row fact table (default 1M)
//   --json=PATH   write the machine-readable results to PATH
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algo/radix_cluster.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "model/calibrator.h"
#include "model/cost_model.h"
#include "model/planner.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ccdb;

namespace {

double MinOfRunsMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    double ms = t.ElapsedMillis();
    if (ms < best) best = ms;
  }
  return best;
}

struct PathTiming {
  const char* name;
  double serial_ms = 0;
  double parallel_ms = 0;

  double speedup() const {
    return parallel_ms > 0 ? serial_ms / parallel_ms : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const size_t kFact = full ? (4u << 20) : (1u << 20);
  const size_t kDim = kFact / 4;
  const size_t kWorkers = ThreadPool::HardwareThreads();
  const int kReps = 3;
  // On a 1-thread host "parallel" is the same execution plus scheduling
  // overhead: ≈1.0x is expected there, NOT a scaling regression — and a
  // real regression would be invisible. The JSON carries this flag so
  // downstream speedup checks skip rather than silently pass/fail.
  const bool speedups_meaningful = kWorkers > 1;

  std::printf("== parallel_exec: morsel-parallel operator speedups ==\n");
  std::printf("fact=%zu rows, dim=%zu rows, %zu hardware threads\n", kFact,
              kDim, kWorkers);
  if (!speedups_meaningful) {
    std::printf("NOTE: hardware_concurrency=1 — parallel speedups below are "
                "not meaningful on this host\n");
  }
  std::printf("\n");

  Rng rng(2026);
  auto fact_rs = RowStore::Make({{"fk", FieldType::kU32},
                                 {"g", FieldType::kU32},
                                 {"gg", FieldType::kU32},
                                 {"v", FieldType::kU32}},
                                kFact);
  CCDB_CHECK(fact_rs.ok());
  for (size_t i = 0; i < kFact; ++i) {
    size_t r = *fact_rs->AppendRow();
    fact_rs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kDim)));
    fact_rs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(64)));
    fact_rs->SetU32(r, 2, static_cast<uint32_t>(rng.NextBelow(100000)));
    fact_rs->SetU32(r, 3, static_cast<uint32_t>(rng.NextBelow(1000)));
  }
  Table fact = *Table::FromRowStore(*fact_rs);
  auto dim_rs = RowStore::Make({{"id", FieldType::kU32}}, kDim);
  CCDB_CHECK(dim_rs.ok());
  for (size_t i = 0; i < kDim; ++i) {
    size_t r = *dim_rs->AppendRow();
    dim_rs->SetU32(r, 0, static_cast<uint32_t>(i));
  }
  Table dim = *Table::FromRowStore(*dim_rs);

  auto run_at = [&](const std::function<LogicalPlan()>& build, size_t par) {
    PlannerOptions opts;
    opts.exec.parallelism = par;
    return MinOfRunsMs(kReps, [&] {
      auto r = Execute(build(), opts);
      CCDB_CHECK(r.ok());
    });
  };

  // Partitioned-join path: the join dominates (64-group aggregate on top
  // keeps result materialization negligible).
  auto join_query = [&]() {
    auto p = QueryBuilder(fact)
                 .Join(dim, "fk", "id")
                 .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  // Group-by path: 100k distinct groups, no join.
  auto groupby_query = [&]() {
    auto p = QueryBuilder(fact)
                 .GroupByAgg({"gg"}, {Agg::Sum("v"), Agg::Count()})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  // Select path: morsel-parallel candidate evaluation.
  auto select_query = [&]() {
    auto p = QueryBuilder(fact)
                 .Filter(Between(Col("v"), 0u, 99u))
                 .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  // Generalized aggregate path: multi-key group-by computing min/max/avg
  // from the shared (sum, count, min, max) accumulators.
  auto minmaxavg_query = [&]() {
    auto p = QueryBuilder(fact)
                 .GroupByAgg({"g", "gg"},
                             {Agg::Min("v"), Agg::Max("v"), Agg::Avg("v")})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  // Disjunction-select path: a three-branch OR (with a negated leaf) lowered
  // to candidate-list passes and sorted-position-list unions — the
  // per-commit number tracking expression-filter speedup.
  auto or_select_query = [&]() {
    auto p = QueryBuilder(fact)
                 .Filter(Col("v") <= 99u ||
                         (Between(Col("gg"), 50000u, 59999u) &&
                          !(Col("g") == 3u)) ||
                         InU32(Col("g"), {7, 11, 13}))
                 .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  // HAVING path: filter the 100k-group aggregate output in place on its
  // owned i64 sum column.
  auto having_query = [&]() {
    auto p = QueryBuilder(fact)
                 .GroupByAgg({"gg"}, {Agg::Sum("v"), Agg::Count()})
                 .Having(Col("sum") >= 4000u && Col("count") >= 8u)
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };

  PathTiming paths[] = {{"partitioned_join"},
                        {"group_by"},
                        {"select"},
                        {"group_by_min_max_avg"},
                        {"or_select"},
                        {"having"}};
  const std::function<LogicalPlan()> queries[] = {join_query, groupby_query,
                                                  select_query,
                                                  minmaxavg_query,
                                                  or_select_query,
                                                  having_query};
  constexpr size_t kPaths = sizeof(paths) / sizeof(paths[0]);
  for (size_t i = 0; i < kPaths; ++i) {
    paths[i].serial_ms = run_at(queries[i], 1);
    paths[i].parallel_ms = run_at(queries[i], kWorkers);
    std::printf("%-20s serial %8.2f ms   x%zu workers %8.2f ms   "
                "speedup %.2fx\n",
                paths[i].name, paths[i].serial_ms, kWorkers,
                paths[i].parallel_ms, paths[i].speedup());
  }

  // Planner accuracy: a 3-table join chain written in the suboptimal order
  // (big non-selective inner first, selective small inner last). The
  // statistics-driven planner must reorder it (visible in ExplainJoins)
  // and the reordered plan must run measurably faster; we also record how
  // far the predicted join-order benefit was from the measured one.
  std::printf("\nplanner accuracy (join-chain reordering):\n");
  const size_t kSmallDim = 16;  // selective: only g in [0, 16) of 64 survive
  auto gsmall_rs = RowStore::Make({{"gid", FieldType::kU32}}, kSmallDim);
  CCDB_CHECK(gsmall_rs.ok());
  for (size_t i = 0; i < kSmallDim; ++i) {
    size_t r = *gsmall_rs->AppendRow();
    gsmall_rs->SetU32(r, 0, static_cast<uint32_t>(i));
  }
  Table gsmall = *Table::FromRowStore(*gsmall_rs);
  auto chain_query = [&]() {
    auto p = QueryBuilder(fact)
                 .Join(dim, "fk", "id")          // big inner, 1:1, keeps all
                 .Join(gsmall, "g", "gid")       // small inner, keeps 1/4
                 .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                 .Build();
    CCDB_CHECK(p.ok());
    return *std::move(p);
  };
  auto time_chain = [&](bool reorder) {
    PlannerOptions opts;
    opts.exec.parallelism = 1;
    opts.reorder_joins = reorder;
    Planner planner(opts);
    return MinOfRunsMs(kReps, [&] {
      auto physical = planner.Lower(chain_query());
      CCDB_CHECK(physical.ok());
      CCDB_CHECK(physical->Execute().ok());
    });
  };
  // Predicted join cost totals from the pre-execution cost report.
  auto predicted_join_ms = [&](bool reorder) {
    PlannerOptions opts;
    opts.reorder_joins = reorder;
    Planner planner(opts);
    auto physical = planner.Lower(chain_query());
    CCDB_CHECK(physical.ok());
    double total = 0;
    for (const OpCostInfo& op : physical->costs()) {
      if (op.label.rfind("Join", 0) == 0) total += op.predicted_ns * 1e-6;
    }
    return total;
  };
  double unreordered_ms = time_chain(false);
  double reordered_ms = time_chain(true);
  double pred_unreordered_ms = predicted_join_ms(false);
  double pred_reordered_ms = predicted_join_ms(true);
  double measured_speedup =
      reordered_ms > 0 ? unreordered_ms / reordered_ms : 0;
  double predicted_speedup =
      pred_reordered_ms > 0 ? pred_unreordered_ms / pred_reordered_ms : 0;
  double speedup_error =
      measured_speedup > 0
          ? std::abs(predicted_speedup - measured_speedup) / measured_speedup
          : 0;
  {
    PlannerOptions opts;
    Planner planner(opts);
    auto physical = planner.Lower(chain_query());
    CCDB_CHECK(physical.ok());
    CCDB_CHECK(physical->Execute().ok());
    std::printf("%s", physical->ExplainJoins().c_str());
  }
  std::printf("  written order %8.2f ms   reordered %8.2f ms   "
              "speedup %.2fx (predicted %.2fx, error %.0f%%)\n",
              unreordered_ms, reordered_ms, measured_speedup,
              predicted_speedup, speedup_error * 100);

  // fig9-style radix-cluster smoke: a few (B, P) points, measured vs model —
  // under both the static GenericX86 profile (the historical "model_ms",
  // whose hardcoded 64-entry TLB overprices high-fanout passes 5-15x on
  // modern parts) and the calibrator's measured host profile (real TLB
  // entry count and walk cost), so BENCH_ci.json tracks the prediction-
  // ratio improvement the measured profile buys.
  std::printf("\nradix-cluster smoke (C=%zu):\n", kFact);
  MachineProfile profile = MachineProfile::GenericX86();
  CostModel model(profile);
  CostModel measured_model(MeasuredHostProfile());
  DirectMemory mem;
  std::vector<Bun> rel(kFact);
  for (size_t i = 0; i < kFact; ++i) {
    rel[i] = {static_cast<oid_t>(i), static_cast<uint32_t>(rng.NextBelow(
                                         static_cast<uint64_t>(kFact)))};
  }
  struct ClusterPoint {
    int bits, passes;
    double measured_ms, model_ms, model_measured_ms;
    double ratio(double m) const { return measured_ms > 0 ? m / measured_ms : 0; }
  };
  std::vector<ClusterPoint> cluster_points;
  for (int bits : {4, 8, 12}) {
    for (int passes : {1, 2}) {
      RadixClusterOptions opt{.bits = bits, .passes = passes,
                              .bits_per_pass = {}};
      double ms = MinOfRunsMs(kReps, [&] {
        auto out = RadixCluster(std::span<const Bun>(rel), opt, mem);
        CCDB_CHECK(out.ok());
      });
      double model_ms = model.Millis(model.Cluster(passes, bits, kFact));
      double model_measured_ms =
          measured_model.Millis(measured_model.Cluster(passes, bits, kFact));
      cluster_points.push_back({bits, passes, ms, model_ms, model_measured_ms});
      std::printf("  B=%-2d P=%d  measured %7.2f ms  model(static) %7.2f ms "
                  "(%.1fx)  model(host) %7.2f ms (%.1fx)\n",
                  bits, passes, ms, model_ms,
                  cluster_points.back().ratio(model_ms), model_measured_ms,
                  cluster_points.back().ratio(model_measured_ms));
    }
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"fact_rows\": %zu,\n  \"dim_rows\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"parallel_speedups_meaningful\": %s,\n  \"paths\": {\n",
                 kFact, kDim, kWorkers,
                 std::thread::hardware_concurrency(),
                 speedups_meaningful ? "true" : "false");
    for (size_t i = 0; i < kPaths; ++i) {
      std::fprintf(f,
                   "    \"%s\": {\"serial_ms\": %.3f, \"parallel_ms\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   paths[i].name, paths[i].serial_ms, paths[i].parallel_ms,
                   paths[i].speedup(), i + 1 < kPaths ? "," : "");
    }
    std::fprintf(
        f,
        "  },\n  \"planner_accuracy\": {\n"
        "    \"unreordered_ms\": %.3f,\n    \"reordered_ms\": %.3f,\n"
        "    \"measured_speedup\": %.3f,\n"
        "    \"predicted_join_ms_unreordered\": %.3f,\n"
        "    \"predicted_join_ms_reordered\": %.3f,\n"
        "    \"predicted_speedup\": %.3f,\n"
        "    \"speedup_error\": %.3f\n  },\n",
        unreordered_ms, reordered_ms, measured_speedup, pred_unreordered_ms,
        pred_reordered_ms, predicted_speedup, speedup_error);
    std::fprintf(f, "  \"radix_cluster_smoke\": [\n");
    for (size_t i = 0; i < cluster_points.size(); ++i) {
      const ClusterPoint& c = cluster_points[i];
      std::fprintf(f,
                   "    {\"bits\": %d, \"passes\": %d, \"measured_ms\": %.3f, "
                   "\"model_ms\": %.3f, \"model_measured_ms\": %.3f, "
                   "\"ratio_static\": %.2f, \"ratio_measured\": %.2f}%s\n",
                   c.bits, c.passes, c.measured_ms, c.model_ms,
                   c.model_measured_ms, c.ratio(c.model_ms),
                   c.ratio(c.model_measured_ms),
                   i + 1 < cluster_points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
