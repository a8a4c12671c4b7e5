// Ablation (§3.2 grouping + the radix idea generalized): hash-grouping is
// fast while its group table fits the caches; with millions of distinct
// groups it degrades to random access. Radix-partitioning the input first
// (RadixGroupSum) keeps every partition's table cache-resident — the same
// trade the paper makes for join. Sort-grouping is the §3.2 baseline.
// hash_ms times GroupAggTable::AddColumns, the columnar table GroupByAggOp
// runs, in its hashed form: the keys are multiplied by an odd constant, so
// their bounding box spans the u32 range and never fits the slot array;
// RadixGroupSum folds each cluster into the same table.
#include "bench_common.h"

#include <algorithm>

#include "algo/radix_aggregate.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

/// Median, minimum and maximum elapsed milliseconds over `reps` runs.
struct Spread {
  double median, min, max;
};

template <typename Fn>
Spread TimeSpread(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(TimeMillis(fn));
  std::sort(ms.begin(), ms.end());
  return {ms[ms.size() / 2], ms.front(), ms.back()};
}

/// "median [min-max]".
std::string Fmt(const Spread& s) {
  return TablePrinter::Fmt(s.median, 1) + " [" + TablePrinter::Fmt(s.min, 1) +
         "-" + TablePrinter::Fmt(s.max, 1) + "]";
}

// On a shared host one binary's cells spread by tens of percent from run to
// run, so each cell is the median of kReps runs with their range beside it.
constexpr int kReps = 5;

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader("Ablation", "grouping: hash vs sort vs radix-partitioned");

  const size_t kN = env.full ? (16u << 20) : (4u << 20);
  Rng rng(404);
  std::vector<uint32_t> values(kN);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextBelow(1000));

  TablePrinter table(
      {"distinct groups", "hash_ms", "sort_ms", "radix_ms", "radix_bits"});
  DirectMemory mem;
  for (size_t groups : {64u, 4096u, 262144u, 2097152u}) {
    std::vector<uint32_t> keys(kN);
    for (auto& k : keys)
      k = static_cast<uint32_t>(rng.NextBelow(groups) * 2654435761u);

    // The hash table must agree with sort grouping on the group count and
    // the total sum, so hash_ms times the same answer.
    GroupAggregates reference;
    Spread sort_ms = TimeSpread(kReps, [&] {
      reference = SortGroupSum(std::span<const uint32_t>(keys),
                               std::span<const uint32_t>(values), mem);
      CCDB_CHECK(reference.size() <= groups);
    });
    uint64_t reference_total = 0;
    for (uint64_t s : reference.sums) reference_total += s;
    const uint32_t* key_col = keys.data();
    const uint32_t* value_col = values.data();
    Spread hash_ms = TimeSpread(kReps, [&] {
      GroupAggTable<DirectMemory> agg(/*key_width=*/1, /*num_values=*/1,
                                      groups);
      agg.AddColumns({&key_col, 1}, {&value_col, 1}, 0, kN, mem);
      CCDB_CHECK(agg.num_groups() == reference.size());
      uint64_t total = 0;
      for (size_t g = 0; g < agg.num_groups(); ++g) {
        total += agg.state(g, 0).sum;
      }
      CCDB_CHECK(total == reference_total);
    });
    // Partition so each cluster holds ~2k groups (table ~ L1/L2 resident).
    int bits = std::max(Log2Ceil(groups / 2048 + 1), 0);
    int passes = std::max((bits + 5) / 6, 1);
    Spread radix_ms = TimeSpread(kReps, [&] {
      auto agg = RadixGroupSum(std::span<const uint32_t>(keys),
                               std::span<const uint32_t>(values), bits,
                               passes, mem);
      CCDB_CHECK(agg.ok() && agg->size() <= groups);
    });
    table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(groups)),
                  Fmt(hash_ms), Fmt(sort_ms), Fmt(radix_ms),
                  TablePrinter::Fmt(bits)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected: few groups — plain hash wins (its table lives in L1, the\n"
      "paper's §3.2 observation) and radix clustering is pure overhead.\n"
      "As distinct groups outgrow the caches, plain hash degrades to one\n"
      "random access per tuple and the radix-partitioned variant closes in\n"
      "and overtakes it (the crossover depends on the host's cache sizes);\n"
      "sort-grouping stays the baseline throughout. Both hash columns run\n"
      "the engine's columnar table (which also keeps row counts and\n"
      "min/max). Each cell is the median of %d runs, [min-max] beside it.\n",
      kReps);
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
