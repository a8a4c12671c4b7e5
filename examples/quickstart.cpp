// Quickstart: the 60-second tour of ccdb.
//
//   1. Build two relations of [OID, value] BUNs (the paper's join workload).
//   2. Let the planner pick a cache-conscious join strategy.
//   3. Run it, and compare against the naive non-partitioned hash join.
//   4. Count the exact cache/TLB misses of both, using the built-in
//      memory-hierarchy simulator (the software stand-in for the paper's
//      R10000 hardware counters).
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>

#include "algo/join.h"
#include "model/strategy.h"
#include "util/rng.h"

using namespace ccdb;

int main() {
  // ---- 1. workload: 1M-tuple relations, unique values, hit rate 1 --------
  constexpr size_t kC = 1 << 20;
  auto values = UniqueU32(kC, /*seed=*/2024);
  std::vector<Bun> orders(kC), lineitems(kC);
  for (size_t i = 0; i < kC; ++i)
    orders[i] = {static_cast<oid_t>(i), values[i]};
  Rng rng(7);
  Shuffle(values, rng);
  for (size_t i = 0; i < kC; ++i)
    lineitems[i] = {static_cast<oid_t>(i), values[i]};

  // ---- 2. plan ------------------------------------------------------------
  MachineProfile machine = MachineProfile::GenericX86();
  JoinPlan plan = PlanJoin(JoinStrategy::kBest, kC, machine);
  std::printf("planner: %s join, B=%d radix bits (%d passes), model %.1f ms\n",
              plan.use_radix_join ? "radix" : "partitioned hash", plan.bits,
              plan.passes, plan.predicted_ms);

  // ---- 3. execute and compare against the naive baseline ------------------
  DirectMemory direct;
  JoinStats stats;
  auto result = JoinRelations(std::span<const Bun>(orders),
                              std::span<const Bun>(lineitems), ShapeOf(plan),
                              direct, &stats);
  CCDB_CHECK(result.ok());
  std::printf("cache-conscious: %8.1f ms  (%.1f cluster + %.1f join), %zu pairs\n",
              stats.total_ms(), stats.cluster_left_ms + stats.cluster_right_ms,
              stats.join_ms, result->size());

  JoinStats naive_stats;
  auto naive = JoinRelations(std::span<const Bun>(orders),
                             std::span<const Bun>(lineitems), JoinShape{},
                             direct, &naive_stats);
  CCDB_CHECK(naive.ok());
  std::printf("simple hash:     %8.1f ms, %zu pairs  => %.1fx speedup\n",
              naive_stats.total_ms(), naive->size(),
              naive_stats.total_ms() / stats.total_ms());
  CCDB_CHECK(naive->size() == result->size());

  // ---- 4. exact miss counts via the simulator -----------------------------
  constexpr size_t kSimC = 1 << 17;  // smaller: simulation is exact but slow
  std::span<const Bun> l(orders.data(), kSimC);
  std::span<const Bun> r(lineitems.data(), kSimC);

  MemoryHierarchy h1(MachineProfile::Origin2000());
  SimulatedMemory sim1(&h1);
  CCDB_CHECK(JoinRelations(l, r, JoinShape{}, sim1).ok());
  MemEvents naive_ev = h1.events();

  MemoryHierarchy h2(MachineProfile::Origin2000());
  SimulatedMemory sim2(&h2);
  auto phash = JoinRelations(
      l, r, {.kernel = JoinKernel::kHash, .bits = 9, .passes = 2}, sim2);
  CCDB_CHECK(phash.ok());
  MemEvents smart_ev = h2.events();

  std::printf("\nsimulated on the paper's Origin2000 (C=%zu):\n", kSimC);
  std::printf("  %-18s %12s %12s %12s\n", "", "L1 misses", "L2 misses",
              "TLB misses");
  std::printf("  %-18s %12llu %12llu %12llu\n", "simple hash",
              (unsigned long long)naive_ev.l1_misses,
              (unsigned long long)naive_ev.l2_misses,
              (unsigned long long)naive_ev.tlb_misses);
  std::printf("  %-18s %12llu %12llu %12llu\n", "radix-clustered",
              (unsigned long long)smart_ev.l1_misses,
              (unsigned long long)smart_ev.l2_misses,
              (unsigned long long)smart_ev.tlb_misses);
  std::printf("\nmemory stall time implied by the paper's latencies: "
              "%.1f ms -> %.1f ms\n",
              naive_ev.StallNanos(MachineProfile::Origin2000().lat) * 1e-6,
              smart_ev.StallNanos(MachineProfile::Origin2000().lat) * 1e-6);
  return 0;
}
