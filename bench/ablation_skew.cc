// Ablation: value-distribution robustness of radix clustering. The paper's
// workloads are uniform unique integers, where clustering on the low value
// bits (identity "hash") is perfect. Two realistic deviations:
//
//   * structured values (e.g. all multiples of 2^k — padded keys, aligned
//     pointers): the low bits are constant, identity clustering collapses
//     into one giant cluster; a mixing hash (murmur fmix32) restores
//     balance;
//   * Zipf-skewed foreign keys: the hot value's duplicates must share a
//     cluster under *any* hash (equal keys must meet), so the hot cluster
//     grows with skew — the hash join inside each cluster still degrades
//     gracefully.
#include "bench_common.h"

#include <cmath>

#include "algo/join.h"
#include "algo/radix_cluster.h"
#include "util/table_printer.h"
#include "util/zipf.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

/// Largest cluster's share of all tuples after clustering on `bits`.
template <class HashFn>
double MaxClusterShare(std::span<const Bun> rel, int bits) {
  DirectMemory mem;
  auto out = RadixCluster<DirectMemory, HashFn>(
      rel, RadixClusterOptions{bits, (bits + 5) / 6, {}}, mem);
  CCDB_CHECK(out.ok());
  const std::vector<uint64_t>& bounds = out->bounds;
  uint64_t max_size = 0;
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    max_size = std::max(max_size, bounds[c + 1] - bounds[c]);
  }
  return static_cast<double>(max_size) / static_cast<double>(rel.size());
}

template <class HashFn>
double JoinMs(std::span<const Bun> probe, std::span<const Bun> build,
              int bits, uint64_t* result_count) {
  DirectMemory mem;
  JoinStats stats;
  auto out = JoinRelations<DirectMemory, HashFn>(
      probe, build,
      {.kernel = JoinKernel::kHash, .bits = bits, .passes = (bits + 5) / 6},
      mem, &stats);
  CCDB_CHECK(out.ok());
  *result_count = out->size();
  return stats.total_ms();
}

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader("Ablation", "radix clustering under skewed distributions");

  const size_t kC = env.full ? (4u << 20) : (1u << 20);
  const size_t kDistinct = 100000;
  const int kBits = 10;
  Rng rng(17);

  // Distribution 1: uniform unique values, self-join (the paper's setup).
  auto uniform = bench::UniqueRelation(kC, 71);

  // Distribution 2: multiples of 1024 (low bits constant), unique.
  std::vector<Bun> strided(kC);
  for (size_t i = 0; i < kC; ++i) {
    strided[i] = {static_cast<oid_t>(i),
                  static_cast<uint32_t>((i * 1024) & 0xffffffff)};
  }
  for (size_t i = kC; i > 1; --i) {
    std::swap(strided[i - 1], strided[rng.NextBelow(i)]);
  }

  // Distribution 3: Zipf(0.99) foreign keys over 100k distinct values,
  // probing a build side that holds each distinct value once (so the
  // result stays at |probe| instead of exploding quadratically).
  std::vector<Bun> zipf(kC);
  ZipfGenerator zg(kDistinct, 0.99, 73);
  auto rank_value = [](uint64_t rank) {
    return static_cast<uint32_t>(rank * 2654435761u);
  };
  for (size_t i = 0; i < kC; ++i) {
    zipf[i] = {static_cast<oid_t>(i), rank_value(zg.Next())};
  }
  std::vector<Bun> zipf_build(kDistinct);
  for (size_t r = 0; r < kDistinct; ++r) {
    zipf_build[r] = {static_cast<oid_t>(1u << 24 | r), rank_value(r)};
  }

  struct Case {
    const char* name;
    std::span<const Bun> probe;
    std::span<const Bun> build;
  } cases[] = {{"uniform unique", uniform, uniform},
               {"multiples of 1024", strided, strided},
               {"zipf(0.99) FKs", zipf, zipf_build}};

  TablePrinter table({"distribution", "maxcluster_identity",
                      "maxcluster_murmur", "phash_identity_ms",
                      "phash_murmur_ms", "result"});
  for (const Case& c : cases) {
    double share_id = MaxClusterShare<IdentityHash>(c.probe, kBits);
    double share_mm = MaxClusterShare<MurmurHash>(c.probe, kBits);
    uint64_t n_id = 0, n_mm = 0;
    double ms_id = JoinMs<IdentityHash>(c.probe, c.build, kBits, &n_id);
    double ms_mm = JoinMs<MurmurHash>(c.probe, c.build, kBits, &n_mm);
    CCDB_CHECK(n_id == n_mm);
    table.AddRow({c.name, TablePrinter::Fmt(share_id * 100, 2) + "%",
                  TablePrinter::Fmt(share_mm * 100, 2) + "%",
                  TablePrinter::Fmt(ms_id, 1), TablePrinter::Fmt(ms_mm, 1),
                  TablePrinter::Fmt(n_id)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected: uniform — both hashes balance (~0.1%% per cluster at\n"
      "B=10) and perform alike. Structured values — identity collapses all\n"
      "tuples into one cluster (100%%) and loses the partitioning benefit;\n"
      "murmur restores balance. Zipf — the hot value's cluster is large\n"
      "under either hash (equal keys must colocate), yet the join inside\n"
      "the cluster stays linear thanks to its hash table.\n");
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
