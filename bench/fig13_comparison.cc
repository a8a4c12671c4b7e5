// Figure 13 — "Overall Algorithm Comparison": total join time vs
// cardinality for every strategy the paper plots: sort-merge, simple
// (non-partitioned) hash, phash L2 / TLB / L1 / 256 / min, radix 8 / min.
//
// Expected shape: the cache-conscious strategies win by a growing factor as
// relations outgrow the caches; ordering at large C is roughly
// phash min <= phash L1 < phash TLB < phash L2 < simple hash < sort-merge,
// with radix-join competitive only at the largest cardinalities.
#include "bench_common.h"

#include "algo/join.h"
#include "model/strategy.h"
#include "util/table_printer.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader("Figure 13", "total join time vs cardinality, all strategies");

  // Paper X axis: 16k .. 65,536k tuples.
  std::vector<size_t> cards = {16000, 64000, 256000, 1000000, 4000000};
  if (env.full) cards.push_back(16000000);

  const std::vector<JoinStrategy> strategies = {
      JoinStrategy::kSortMerge, JoinStrategy::kSimpleHash,
      JoinStrategy::kPhashL2,   JoinStrategy::kPhashTLB,
      JoinStrategy::kPhashL1,   JoinStrategy::kPhash256,
      JoinStrategy::kPhashMin,  JoinStrategy::kRadix8,
      JoinStrategy::kRadixMin,  JoinStrategy::kBest,
  };

  std::vector<std::string> header = {"cardinality"};
  for (JoinStrategy s : strategies) header.push_back(JoinStrategyName(s));
  TablePrinter table(header);
  DirectMemory direct;

  for (size_t c : cards) {
    auto [l, r] = bench::JoinPair(c, 4242 + c);
    std::vector<std::string> row = {TablePrinter::Fmt(static_cast<uint64_t>(c))};
    for (JoinStrategy s : strategies) {
      JoinPlan plan = PlanJoin(s, c, env.profile);
      JoinStats stats;
      auto out = JoinRelations(std::span<const Bun>(l),
                               std::span<const Bun>(r), ShapeOf(plan),
                               direct, &stats);
      CCDB_CHECK(out.ok());
      CCDB_CHECK(out->size() == c);
      row.push_back(TablePrinter::Fmt(stats.total_ms(), 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(stdout);

  std::printf("\nAll times in milliseconds (cluster/sort + join phases).\n");
  std::printf(
      "Check: cache-conscious strategies (phash*/radix*) should beat\n"
      "simple hash and sort-merge by a factor that grows with cardinality;\n"
      "'best' should track the fastest column.\n");
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
