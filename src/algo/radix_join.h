// Radix-join (§3.3.1, Figs. 7/8): radix-cluster both relations on B bits,
// then nested-loop join each pair of matching clusters. Meant for very fine
// clusterings — H is tuned to C divided by a small constant (the paper finds
// ~8 tuples per cluster optimal); at 1 tuple/cluster it degenerates into
// sort/merge-join with radix-sort as the sort.
#ifndef CCDB_ALGO_RADIX_JOIN_H_
#define CCDB_ALGO_RADIX_JOIN_H_

#include "algo/nested_loop_join.h"
#include "algo/radix_cluster.h"

namespace ccdb {

/// Join phase only (paper Fig. 10 measures exactly this): both inputs must
/// be clustered on the same number of bits.
template <class Mem, class HashFn = IdentityHash>
std::vector<Bun> RadixJoinClustered(const ClusteredRelation& l,
                                    const ClusteredRelation& r, Mem& mem,
                                    size_t result_hint = 0) {
  std::vector<Bun> out;
  out.reserve(result_hint != 0 ? result_hint
                               : std::min(l.tuples.size(), r.tuples.size()));
  MergeClusterPairs<Mem, HashFn>(
      l, r, mem,
      [&](size_t l_lo, size_t l_hi, size_t r_lo, size_t r_hi) {
        NestedLoopJoinInto({&l.tuples[l_lo], l_hi - l_lo},
                           {&r.tuples[r_lo], r_hi - r_lo}, mem, out);
      });
  return out;
}

/// Full radix-join: cluster both inputs on `bits` over `passes`, then join.
/// Fills `stats` (cluster/join split) when non-null.
template <class Mem, class HashFn = IdentityHash>
StatusOr<std::vector<Bun>> RadixJoin(std::span<const Bun> l,
                                     std::span<const Bun> r, int bits,
                                     int passes, Mem& mem,
                                     JoinStats* stats = nullptr) {
  return ClusterBothAndJoin<Mem, HashFn>(
      l, r, bits, passes, mem, stats,
      [&](const ClusteredRelation& cl, const ClusteredRelation& cr) {
        return RadixJoinClustered<Mem, HashFn>(cl, cr, mem);
      });
}

}  // namespace ccdb

#endif  // CCDB_ALGO_RADIX_JOIN_H_
