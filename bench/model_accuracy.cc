// Model validation: the paper's central methodological claim is that its
// cost models "mimic the memory access pattern of the algorithm ... and
// quantify its cost by counting cache miss events" — and that the resulting
// predictions are "very accurate" (Figs. 9-11 lines vs points).
//
// This bench quantifies that for this reproduction: for a grid of
// (algorithm, B, C) it prints simulated event counts next to the model's
// predictions and their ratio. Sequential-term offsets (the implementation
// re-reads its input once per pass for the histogram) are expected; the
// H-dependent terms that give the figures their shape should track closely.
#include "bench_common.h"

#include <cmath>

#include "algo/join.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "model/calibrator.h"
#include "model/cost_model.h"
#include "model/planner.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

std::string Ratio(double sim, double model) {
  if (model <= 0) return "-";
  return TablePrinter::Fmt(sim / model, 2);
}

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader("Model validation",
                  "simulated miss counts vs the paper's cost formulas");
  CostModel model(env.profile);
  DirectMemory direct;

  const size_t kC = env.full ? (1u << 20) : (1u << 18);
  std::printf("C = %zu tuples, profile %s\n\n", kC, env.profile_name.c_str());

  // ---- radix-cluster -------------------------------------------------------
  std::printf("radix-cluster (one relation):\n");
  TablePrinter ct({"B", "P", "sim_L2", "model_L2", "L2_ratio", "sim_TLB",
                   "model_TLB", "TLB_ratio"});
  auto rel = bench::UniqueRelation(kC, 99);
  for (auto [bits, passes] : {std::pair{4, 1}, {8, 1}, {8, 2}, {12, 2},
                              {12, 1}, {16, 3}}) {
    MemoryHierarchy h(env.profile);
    SimulatedMemory sim(&h);
    auto out = RadixCluster(std::span<const Bun>(rel),
                            RadixClusterOptions{bits, passes, {}}, sim);
    CCDB_CHECK(out.ok());
    MemEvents ev = h.events();
    ModelPrediction p = model.Cluster(passes, bits, kC);
    ct.AddRow({TablePrinter::Fmt(bits), TablePrinter::Fmt(passes),
               TablePrinter::Fmt(ev.l2_misses),
               TablePrinter::Fmt(static_cast<uint64_t>(p.l2_misses)),
               Ratio(static_cast<double>(ev.l2_misses), p.l2_misses),
               TablePrinter::Fmt(ev.tlb_misses),
               TablePrinter::Fmt(static_cast<uint64_t>(p.tlb_misses)),
               Ratio(static_cast<double>(ev.tlb_misses), p.tlb_misses)});
  }
  ct.Print(stdout);

  // ---- partitioned hash-join phase ----------------------------------------
  std::printf("\npartitioned hash-join (join phase):\n");
  TablePrinter ht({"B", "sim_L2", "model_L2", "L2_ratio", "sim_TLB",
                   "model_TLB", "TLB_ratio"});
  auto [l, r] = bench::JoinPair(kC, 98);
  for (int bits : {0, 4, 8, 12}) {
    RadixClusterOptions opt{bits, model.OptimalPasses(bits), {}};
    auto cl = RadixCluster(std::span<const Bun>(l), opt, direct);
    auto cr = RadixCluster(std::span<const Bun>(r), opt, direct);
    CCDB_CHECK(cl.ok() && cr.ok());
    MemoryHierarchy h(env.profile);
    SimulatedMemory sim(&h);
    auto out = bench::JoinPhase(
        *cl, *std::move(cr),
        {.kernel = JoinKernel::kHash, .bits = bits, .passes = opt.passes},
        sim);
    CCDB_CHECK(out.size() == kC);
    MemEvents ev = h.events();
    ModelPrediction p = model.PhashJoinPhase(bits, kC);
    ht.AddRow({TablePrinter::Fmt(bits), TablePrinter::Fmt(ev.l2_misses),
               TablePrinter::Fmt(static_cast<uint64_t>(p.l2_misses)),
               Ratio(static_cast<double>(ev.l2_misses), p.l2_misses),
               TablePrinter::Fmt(ev.tlb_misses),
               TablePrinter::Fmt(static_cast<uint64_t>(p.tlb_misses)),
               Ratio(static_cast<double>(ev.tlb_misses), p.tlb_misses)});
  }
  ht.Print(stdout);

  // ---- radix-join phase -----------------------------------------------------
  std::printf("\nradix-join (join phase):\n");
  TablePrinter rt({"B", "sim_L1", "model_L1", "L1_ratio", "sim_L2",
                   "model_L2", "L2_ratio"});
  for (int bits : {10, 12, 14}) {
    RadixClusterOptions opt{bits, model.OptimalPasses(bits), {}};
    auto cl = RadixCluster(std::span<const Bun>(l), opt, direct);
    auto cr = RadixCluster(std::span<const Bun>(r), opt, direct);
    CCDB_CHECK(cl.ok() && cr.ok());
    MemoryHierarchy h(env.profile);
    SimulatedMemory sim(&h);
    auto out = bench::JoinPhase(
        *cl, *std::move(cr),
        {.kernel = JoinKernel::kNestedLoop, .bits = bits,
         .passes = opt.passes},
        sim);
    CCDB_CHECK(out.size() == kC);
    MemEvents ev = h.events();
    ModelPrediction p = model.RadixJoinPhase(bits, kC);
    rt.AddRow({TablePrinter::Fmt(bits), TablePrinter::Fmt(ev.l1_misses),
               TablePrinter::Fmt(static_cast<uint64_t>(p.l1_misses)),
               Ratio(static_cast<double>(ev.l1_misses), p.l1_misses),
               TablePrinter::Fmt(ev.l2_misses),
               TablePrinter::Fmt(static_cast<uint64_t>(p.l2_misses)),
               Ratio(static_cast<double>(ev.l2_misses), p.l2_misses)});
  }
  rt.Print(stdout);

  // ---- static vs measured profile: wall-clock prediction ratios -----------
  // The miss-count tables above are profile-consistent by construction
  // (simulator and model share env.profile); *wall-clock* accuracy instead
  // hinges on how well the profile describes this host. GenericX86's
  // hardcoded 64-entry TLB and DDR4 guesses overprice high-fanout cluster
  // passes by 5-15x on modern parts; the calibrator's measured profile
  // (real TLB entry count, measured walk/L2/memory latencies —
  // MeasuredHostProfile) is the fix, and this table quantifies it. ratio =
  // model_ms / wall_ms; closer to 1 is better.
  std::printf("\nradix-cluster wall clock: static vs measured profile:\n");
  {
    CostModel static_model(MachineProfile::GenericX86());
    CostModel host_model(MeasuredHostProfile());
    TablePrinter wt({"B", "P", "wall_ms", "static_ms", "static_ratio",
                     "host_ms", "host_ratio"});
    double worst_static = 0, worst_host = 0;
    for (auto [bits, passes] :
         {std::pair{4, 1}, {8, 1}, {12, 1}, {12, 2}, {16, 2}}) {
      RadixClusterOptions opt{bits, passes, {}};
      double wall_ms = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer t;
        auto out = RadixCluster(std::span<const Bun>(rel), opt, direct);
        CCDB_CHECK(out.ok());
        wall_ms = std::min(wall_ms, t.ElapsedMillis());
      }
      double static_ms = static_model.Millis(
          static_model.Cluster(passes, bits, kC));
      double host_ms = host_model.Millis(host_model.Cluster(passes, bits, kC));
      auto off = [&](double m) {  // multiplicative error, >= 1
        double ratio = m / wall_ms;
        return ratio >= 1 ? ratio : 1 / ratio;
      };
      worst_static = std::max(worst_static, off(static_ms));
      worst_host = std::max(worst_host, off(host_ms));
      wt.AddRow({TablePrinter::Fmt(bits), TablePrinter::Fmt(passes),
                 TablePrinter::Fmt(wall_ms, 2),
                 TablePrinter::Fmt(static_ms, 2), Ratio(static_ms, wall_ms),
                 TablePrinter::Fmt(host_ms, 2), Ratio(host_ms, wall_ms)});
    }
    wt.Print(stdout);
    std::printf("worst multiplicative error: static %.1fx, measured %.1fx "
                "(%s: %s)\n",
                worst_static, worst_host,
                MeasuredHostProfile().name.c_str(),
                worst_host <= worst_static ? "measured profile no worse"
                                           : "static profile better here");
  }

  // ---- whole plans: per-operator predicted vs measured ---------------------
  // The planner predicts every operator from *estimated* cardinalities
  // before execution (§2 scan iterations for scan/select/aggregate, the
  // §3.4 cluster+join composition for joins) and records measured wall
  // time per operator while the plan runs. Ratios here use wall time, so
  // they fold in how well the profile's latencies/CPU constants describe
  // this host — compare the join rows against the scan/select/aggregate
  // rows: scans/selects/aggregates should sit in the same band as joins.
  // Wall-clock comparisons need a profile describing the *host* (the miss
  // comparisons above are profile-consistent by construction: simulator and
  // model share env.profile). Run with the x86 profile regardless of the
  // --profile flag so the predicted milliseconds are commensurable with
  // the measured ones.
  std::printf(
      "\nwhole-plan predicted vs measured (per operator, generic-x86 "
      "profile):\n");
  {
    const size_t kRows = env.full ? (1u << 21) : (1u << 19);
    const size_t kDim = kRows / 8;
    Rng rng(1234);
    auto frs = RowStore::Make({{"fk", FieldType::kU32},
                               {"g", FieldType::kU32},
                               {"v", FieldType::kU32}},
                              kRows);
    CCDB_CHECK(frs.ok());
    for (size_t i = 0; i < kRows; ++i) {
      size_t r = *frs->AppendRow();
      frs->SetU32(r, 0, static_cast<uint32_t>(rng.NextBelow(kDim)));
      frs->SetU32(r, 1, static_cast<uint32_t>(rng.NextBelow(64)));
      frs->SetU32(r, 2, static_cast<uint32_t>(rng.NextBelow(1000)));
    }
    Table fact = *Table::FromRowStore(*frs);
    auto drs = RowStore::Make({{"id", FieldType::kU32}}, kDim);
    CCDB_CHECK(drs.ok());
    for (size_t i = 0; i < kDim; ++i) {
      size_t r = *drs->AppendRow();
      drs->SetU32(r, 0, static_cast<uint32_t>(i));
    }
    Table dim = *Table::FromRowStore(*drs);

    auto plan = QueryBuilder(fact)
                    .Filter(Between(Col("v"), 0u, 499u))
                    .Join(dim, "fk", "id")
                    .GroupByAgg({"g"}, {Agg::Sum("v"), Agg::Count()})
                    .OrderBy("sum", /*descending=*/true)
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.profile = MachineProfile::GenericX86();
    Planner planner(opts);
    auto physical = planner.Lower(*plan);
    CCDB_CHECK(physical.ok());
    CCDB_CHECK(physical->Execute().ok());

    const auto& costs = physical->costs();
    std::vector<double> exclusive = physical->MeasuredExclusiveNs();
    TablePrinter pt({"operator", "est_rows", "rows", "pred_ms", "meas_ms",
                     "ratio"});
    for (size_t i = 0; i < costs.size(); ++i) {
      const OpCostInfo& op = costs[i];
      double meas_ms = exclusive[i] * 1e-6;
      pt.AddRow({op.label, TablePrinter::Fmt(op.estimated_rows),
                 TablePrinter::Fmt(op.actual_rows),
                 TablePrinter::Fmt(op.predicted_ns * 1e-6, 3),
                 TablePrinter::Fmt(meas_ms, 3),
                 Ratio(op.predicted_ns * 1e-6, meas_ms)});
    }
    pt.Print(stdout);
    std::printf("%s", physical->ExplainJoins().c_str());
  }

  std::printf(
      "\nRatios near 1 validate the formulas; systematic offsets (e.g. the\n"
      "extra histogram read per cluster pass) are recorded with the changes\n"
      "that measured them in CHANGES.md.\n");
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
