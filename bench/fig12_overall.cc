// Figure 12 — "Overall Performance of Radix-Join vs Partitioned Hash-Join":
// combined cluster + join cost over the whole bit range, with the strategy
// diagonals (phash L2 / phash TLB / phash L1 / radix 8) marked per
// cardinality.
//
// Expected shape: phash has a wide flat optimum around clusters of ~200
// tuples ("phash min"); radix-join needs many more bits (cluster ~4-8
// tuples) and only approaches phash at large cardinalities; the optimal
// number of clustering passes steps up at 6/12/18 bits.
#include "bench_common.h"

#include <cmath>

#include "algo/join.h"
#include "model/strategy.h"
#include "util/bits.h"
#include "util/table_printer.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader("Figure 12",
                  "total (cluster+join) cost vs bits: radix vs phash");

  std::vector<size_t> cards = {62500, 250000, 1000000};
  if (env.full) {
    cards.push_back(4000000);
    cards.push_back(16000000);
  }
  const double work_budget = env.full ? 4e9 : 3e8;

  CostModel model(env.profile);
  DirectMemory direct;

  TablePrinter table({"cardinality", "bits", "passes", "phash_ms",
                      "phash_model_ms", "radix_ms", "radix_model_ms", "mark"});
  for (size_t c : cards) {
    auto [l, r] = bench::JoinPair(c, 555 + c);
    int b_l2 = StrategyBits(JoinStrategy::kPhashL2, c, env.profile);
    int b_tlb = StrategyBits(JoinStrategy::kPhashTLB, c, env.profile);
    int b_l1 = StrategyBits(JoinStrategy::kPhashL1, c, env.profile);
    int b_r8 = StrategyBits(JoinStrategy::kRadix8, c, env.profile);
    int max_bits = std::min(Log2Floor(c), 22);
    for (int bits = 0; bits <= max_bits; ++bits) {
      int passes = model.OptimalPasses(bits);

      JoinStats ph_stats;
      auto ph = JoinRelations(
          std::span<const Bun>(l), std::span<const Bun>(r),
          {.kernel = JoinKernel::kHash, .bits = bits, .passes = passes},
          direct, &ph_stats);
      CCDB_CHECK(ph.ok() && ph->size() == c);
      double phash_ms = ph_stats.total_ms();
      double phash_model = model.Millis(model.TotalPhashJoin(bits, c));

      double clusters = std::exp2(bits);
      double nl_work =
          static_cast<double>(c) * (static_cast<double>(c) / clusters);
      double radix_ms = -1;
      if (nl_work <= work_budget) {
        JoinStats rj_stats;
        auto rj = JoinRelations(
            std::span<const Bun>(l), std::span<const Bun>(r),
            {.kernel = JoinKernel::kNestedLoop, .bits = bits,
             .passes = passes},
            direct, &rj_stats);
        CCDB_CHECK(rj.ok() && rj->size() == c);
        radix_ms = rj_stats.total_ms();
      }
      double radix_model = model.Millis(model.TotalRadixJoin(bits, c));

      std::string mark;
      if (bits == b_l2) mark += "phash-L2 ";
      if (bits == b_tlb) mark += "phash-TLB ";
      if (bits == b_l1) mark += "phash-L1 ";
      if (bits == b_r8) mark += "radix-8 ";

      table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(c)),
                    TablePrinter::Fmt(bits), TablePrinter::Fmt(passes),
                    TablePrinter::Fmt(phash_ms, 1),
                    TablePrinter::Fmt(phash_model, 1),
                    radix_ms < 0 ? "skipped" : TablePrinter::Fmt(radix_ms, 1),
                    TablePrinter::Fmt(radix_model, 1), mark});
    }
  }
  table.Print(stdout);

  std::printf("\nModel-optimal settings per cardinality ('best' in Fig. 12):\n");
  for (size_t c : cards) {
    int pb = model.BestPhashBits(c);
    int rb = model.BestRadixBits(c);
    std::printf(
        "  C=%-9zu phash: B=%-2d (%4.0f tuples/cluster)   radix: B=%-2d "
        "(%3.0f tuples/cluster)\n",
        c, pb, c / std::exp2(pb), rb, c / std::exp2(rb));
  }
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
