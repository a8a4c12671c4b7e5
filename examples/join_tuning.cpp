// Join tuning walkthrough: how the radix-bits knob trades clustering cost
// against join-phase locality (§3.4.4), and how well the analytical model
// predicts the sweet spot on a machine profile.
//
// Sweeps B for both radix-join and partitioned hash-join on one relation
// size, prints measured vs model cost, then shows what each named paper
// strategy (phash L2 / TLB / L1, radix 8, ...) would pick here.
#include <cmath>
#include <cstdio>

#include "algo/join.h"
#include "model/strategy.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace ccdb;

int main() {
  constexpr size_t kC = 1 << 20;
  MachineProfile machine = MachineProfile::Origin2000();
  CostModel model(machine);
  std::printf("tuning an equi-join of two %zu-tuple relations "
              "(model profile: %s)\n\n", kC, machine.name.c_str());

  auto values = UniqueU32(kC, 77);
  std::vector<Bun> l(kC), r(kC);
  for (size_t i = 0; i < kC; ++i) l[i] = {static_cast<oid_t>(i), values[i]};
  Rng rng(78);
  Shuffle(values, rng);
  for (size_t i = 0; i < kC; ++i)
    r[i] = {static_cast<oid_t>(1 << 24 | i), values[i]};
  DirectMemory mem;

  TablePrinter table({"bits", "passes", "tuples/cluster", "phash_ms",
                      "phash_model_ms", "radix_ms", "radix_model_ms"});
  for (int bits = 0; bits <= 20; bits += 2) {
    int passes = model.OptimalPasses(bits);
    JoinStats ps;
    auto ph = JoinRelations(
        std::span<const Bun>(l), std::span<const Bun>(r),
        {.kernel = JoinKernel::kHash, .bits = bits, .passes = passes}, mem,
        &ps);
    CCDB_CHECK(ph.ok() && ph->size() == kC);

    // Radix-join only where the nested loop is affordable (cluster <= 1024).
    std::string radix_ms = "-";
    if (kC / std::exp2(bits) <= 1024) {
      JoinStats rs;
      auto rj = JoinRelations(
          std::span<const Bun>(l), std::span<const Bun>(r),
          {.kernel = JoinKernel::kNestedLoop, .bits = bits, .passes = passes},
          mem, &rs);
      CCDB_CHECK(rj.ok() && rj->size() == kC);
      radix_ms = TablePrinter::Fmt(rs.total_ms(), 1);
    }
    table.AddRow({TablePrinter::Fmt(bits), TablePrinter::Fmt(passes),
                  TablePrinter::Fmt(kC / std::exp2(bits), 1),
                  TablePrinter::Fmt(ps.total_ms(), 1),
                  TablePrinter::Fmt(model.Millis(model.TotalPhashJoin(bits, kC)), 1),
                  radix_ms,
                  TablePrinter::Fmt(model.Millis(model.TotalRadixJoin(bits, kC)), 1)});
  }
  table.Print(stdout);

  std::printf("\nwhat the paper's named strategies pick for C=%zu:\n", kC);
  for (JoinStrategy s : {JoinStrategy::kPhashL2, JoinStrategy::kPhashTLB,
                         JoinStrategy::kPhashL1, JoinStrategy::kPhashMin,
                         JoinStrategy::kRadix8, JoinStrategy::kBest}) {
    JoinPlan p = PlanJoin(s, kC, machine);
    std::printf("  %-10s -> %s join, B=%2d, %d pass(es), model %.1f ms\n",
                JoinStrategyName(s),
                p.use_radix_join ? "radix" : "phash", p.bits, p.passes,
                p.predicted_ms);
  }
  std::printf(
      "\nReading the table: at B=0 the join trashes every cache level; too\n"
      "many bits waste clustering passes and hash-table setups. The model\n"
      "column should bottom out at the same B region as the measured one.\n");
  return 0;
}
