// Shared plumbing for the figure-reproduction benchmarks: workload
// generation (the paper's unique uniform relations with hit-rate-1 join
// partners), scale selection, and run headers.
//
// Every figure bench accepts:
//   --full          paper-scale cardinalities (minutes); default is a
//                   laptop-scale grid that preserves every crossover
//   --profile=P     origin2000 (default) | x86 | host   — machine profile
//                   used for the simulator and the analytical model
// Environment variable CCDB_FULL=1 is equivalent to --full.
#ifndef CCDB_BENCH_BENCH_COMMON_H_
#define CCDB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algo/join.h"
#include "bat/types.h"
#include "exec/operator.h"
#include "mem/machine.h"
#include "model/calibrator.h"
#include "util/rng.h"

namespace ccdb::bench {

struct BenchEnv {
  bool full = false;
  std::string profile_name = "origin2000";
  MachineProfile profile = MachineProfile::Origin2000();

  static BenchEnv FromArgs(int argc, char** argv) {
    BenchEnv env;
    const char* e = std::getenv("CCDB_FULL");
    if (e != nullptr && std::strcmp(e, "0") != 0) env.full = true;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        env.full = true;
      } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
        env.profile_name = argv[i] + 10;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      }
    }
    if (env.profile_name == "x86") {
      env.profile = MachineProfile::GenericX86();
    } else if (env.profile_name == "host") {
      env.profile = CalibratedHostProfile();
    } else {
      env.profile_name = "origin2000";
      env.profile = MachineProfile::Origin2000();
    }
    return env;
  }

  void PrintHeader(const char* figure, const char* what) const {
    std::printf("== %s: %s ==\n", figure, what);
    std::printf("profile=%s scale=%s\n\n", profile_name.c_str(),
                full ? "full (paper)" : "default (reduced; --full for paper scale)");
  }
};

/// C tuples [oid, value] with unique uniformly distributed values (§3.4.1).
inline std::vector<Bun> UniqueRelation(size_t n, uint64_t seed,
                                       oid_t base = 0) {
  auto values = UniqueU32(n, seed);
  std::vector<Bun> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = {static_cast<oid_t>(base + i), values[i]};
  return out;
}

/// L and R with identical value sets in different orders: join hit rate 1,
/// result cardinality C (the paper's join workload).
inline std::pair<std::vector<Bun>, std::vector<Bun>> JoinPair(size_t n,
                                                              uint64_t seed) {
  auto values = UniqueU32(n, seed);
  std::vector<Bun> l(n), r(n);
  for (size_t i = 0; i < n; ++i) l[i] = {static_cast<oid_t>(i), values[i]};
  Rng rng(seed ^ 0xabcdef);
  Shuffle(values, rng);
  for (size_t i = 0; i < n; ++i)
    r[i] = {static_cast<oid_t>(0x40000000 + i), values[i]};
  return {std::move(l), std::move(r)};
}

/// The join phase of the join driver (algo/join.h) over two relations
/// clustered on `shape.bits`: prepares the build from its clusters and runs
/// every probe task; for a hash shape each task first builds its cluster's
/// table slice, as in JoinOp. What figs. 10 and 11 time and simulate.
template <class Mem>
std::vector<Bun> JoinPhase(const ClusteredRelation& probe,
                           ClusteredRelation build_side,
                           const JoinShape& shape, Mem& mem) {
  JoinBuild<Mem> build;
  CCDB_CHECK(build.Prepare(std::move(build_side), shape, mem).ok());
  std::vector<Bun> out;
  out.reserve(probe.tuples.size());
  build.RunAll(probe.tuples, probe.bounds, mem, out);
  return out;
}

/// Drains SelectOp(Scan(t)) over the whole table in one chunk and returns
/// the number of surviving rows: the filter walk a query's Filter runs.
inline size_t DrainSelect(const Table& t, Expr e) {
  SelectOp op(std::make_unique<ScanOp>(&t, SIZE_MAX), std::move(e));
  CCDB_CHECK(op.Open().ok());
  size_t rows = 0;
  for (;;) {
    Chunk chunk;
    auto more = op.Next(&chunk);
    CCDB_CHECK(more.ok());
    if (!*more) break;
    rows += chunk.rows;
  }
  op.Close();
  return rows;
}

}  // namespace ccdb::bench

#endif  // CCDB_BENCH_BENCH_COMMON_H_
