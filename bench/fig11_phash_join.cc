// Figure 11 — "Performance and Model of Partitioned Hash-Join" (join phase
// only). Same sweep as Figure 10 but hash-joining each cluster pair through
// the join driver JoinOp runs: each task of the join phase builds its
// inner cluster's table slice, then probes it with the outer cluster while
// it is cached. At 0 bits that is one table over the whole inner.
//
// Expected shape: large gains until the inner cluster (plus hash table)
// spans fewer pages than there are TLB entries / fits L2; minimum near
// cluster ~ L1; slight degradation for very small clusters (hash-table
// setup overhead, the paper's w'h term and ~200-tuple optimum).
#include "bench_common.h"

#include <cmath>

#include "model/cost_model.h"
#include "util/bits.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

JoinShape Hash(const RadixClusterOptions& opt) {
  return {.kernel = JoinKernel::kHash, .bits = opt.bits, .passes = opt.passes};
}

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader(
      "Figure 11",
      "partitioned hash-join (join phase only) vs bits, per cardinality");

  std::vector<size_t> cards = {15625, 125000, 1000000};
  if (env.full) cards.push_back(8000000);

  CostModel model(env.profile);
  DirectMemory direct;

  TablePrinter table({"cardinality", "bits", "tuples/cluster", "measured_ms",
                      "model_ms", "sim_L1", "sim_L2", "sim_TLB"});
  for (size_t c : cards) {
    int max_bits = std::max(Log2Floor(c) - 3, 1);  // down to ~8 tuples
    auto [l, r] = bench::JoinPair(c, 991 + c);
    for (int bits = 0; bits <= max_bits; bits += 2) {
      RadixClusterOptions opt{bits, model.OptimalPasses(bits), {}};
      auto cl = RadixCluster(std::span<const Bun>(l), opt, direct);
      auto cr = RadixCluster(std::span<const Bun>(r), opt, direct);
      CCDB_CHECK(cl.ok() && cr.ok());

      WallTimer t;
      auto out = bench::JoinPhase(*cl, *std::move(cr), Hash(opt), direct);
      double measured_ms = t.ElapsedMillis();
      CCDB_CHECK(out.size() == c);

      double model_ms = model.Millis(model.PhashJoinPhase(bits, c));

      size_t sim_c = std::min(c, size_t{1} << 18);
      double scale = static_cast<double>(c) / static_cast<double>(sim_c);
      // Keep tuples/cluster equal at the reduced cardinality; B=0 stays 0
      // (one cluster = the whole relation trashes either way).
      int sim_bits = std::max(bits - Log2Floor(c / sim_c), 0);
      MemEvents ev{};
      {
        auto [sl, sr] = bench::JoinPair(sim_c, 991 + c);
        RadixClusterOptions sopt{
            sim_bits, std::max(model.OptimalPasses(sim_bits), 1), {}};
        auto scl = RadixCluster(std::span<const Bun>(sl), sopt, direct);
        auto scr = RadixCluster(std::span<const Bun>(sr), sopt, direct);
        CCDB_CHECK(scl.ok() && scr.ok());
        MemoryHierarchy h(env.profile);
        SimulatedMemory sim(&h);
        auto sim_out =
            bench::JoinPhase(*scl, *std::move(scr), Hash(sopt), sim);
        CCDB_CHECK(sim_out.size() == sim_c);
        ev = h.events();
      }

      table.AddRow(
          {TablePrinter::Fmt(static_cast<uint64_t>(c)),
           TablePrinter::Fmt(bits),
           TablePrinter::Fmt(static_cast<double>(c) / std::exp2(bits), 1),
           TablePrinter::Fmt(measured_ms, 1), TablePrinter::Fmt(model_ms, 1),
           TablePrinter::Fmt(static_cast<uint64_t>(ev.l1_misses * scale)),
           TablePrinter::Fmt(static_cast<uint64_t>(ev.l2_misses * scale)),
           TablePrinter::Fmt(static_cast<uint64_t>(ev.tlb_misses * scale))});
    }
  }
  table.Print(stdout);
  std::printf(
      "\nExpected shape: at 0 bits this is the non-partitioned hash join\n"
      "(cache trashing); time falls steeply until the cluster fits the TLB\n"
      "span / L2, reaches its minimum near L1-sized clusters, and creeps\n"
      "back up once clusters get tiny and hash-table setup dominates.\n");
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
