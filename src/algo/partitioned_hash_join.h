// Partitioned hash-join (§3.3, Fig. 8): radix-cluster both relations on B
// bits so each cluster (plus its hash table) fits a chosen memory level,
// then hash-join each pair of matching clusters. The
// [SKN94] main-memory Grace join corresponds to P = 1 and B sized for L2;
// the radix-cluster makes L1- and TLB-sized partitioning feasible too
// (the paper's phash L1 / phash TLB strategies).
#ifndef CCDB_ALGO_PARTITIONED_HASH_JOIN_H_
#define CCDB_ALGO_PARTITIONED_HASH_JOIN_H_

#include "algo/hash_table.h"
#include "algo/radix_cluster.h"

namespace ccdb {

/// Join phase only (paper Fig. 11): hash-join every matching cluster pair.
/// `r` is the build (inner) side. Bucket bits are taken *above* the radix
/// bits, since within a cluster all radix bits are equal.
template <class Mem, class HashFn = IdentityHash>
std::vector<Bun> PartitionedHashJoinClustered(const ClusteredRelation& l,
                                              const ClusteredRelation& r,
                                              Mem& mem,
                                              size_t result_hint = 0,
                                              size_t avg_chain = kDefaultChainLength) {
  std::vector<Bun> out;
  out.reserve(result_hint != 0 ? result_hint
                               : std::min(l.tuples.size(), r.tuples.size()));
  MergeClusterPairs<Mem, HashFn>(
      l, r, mem,
      [&](size_t l_lo, size_t l_hi, size_t r_lo, size_t r_hi) {
        std::span<const Bun> build(&r.tuples[r_lo], r_hi - r_lo);
        BucketChainedHashTable<Mem, HashFn> table(build, r.bits, avg_chain,
                                                  mem);
        ProbeHashTable(table, {&l.tuples[l_lo], l_hi - l_lo}, mem, out);
      });
  return out;
}

/// Full partitioned hash-join: cluster both inputs, then join.
template <class Mem, class HashFn = IdentityHash>
StatusOr<std::vector<Bun>> PartitionedHashJoin(std::span<const Bun> l,
                                               std::span<const Bun> r,
                                               int bits, int passes, Mem& mem,
                                               JoinStats* stats = nullptr) {
  return ClusterBothAndJoin<Mem, HashFn>(
      l, r, bits, passes, mem, stats,
      [&](const ClusteredRelation& cl, const ClusteredRelation& cr) {
        return PartitionedHashJoinClustered<Mem, HashFn>(cl, cr, mem);
      });
}

}  // namespace ccdb

#endif  // CCDB_ALGO_PARTITIONED_HASH_JOIN_H_
