// The non-partitioned ("simple") hash join with software prefetching: a
// bench-only ablation of the B = 0 hash join that algo/join.h runs. One
// bucket-sorted hash table over the entire inner relation, probed with the
// outer; when inner + table exceed the caches, every probe is a
// random-access cache miss — the paper's motivating pathology (§3.2).
#ifndef CCDB_ALGO_SIMPLE_HASH_JOIN_H_
#define CCDB_ALGO_SIMPLE_HASH_JOIN_H_

#include "algo/hash_table.h"
#include "util/timer.h"

namespace ccdb {

/// Simple hash join with software prefetching on the probe stream — the
/// [Mow94] latency-hiding idea §2 discusses. While probing tuple i, the
/// bucket offsets that tuple i+distance will need are prefetched,
/// overlapping their memory latency with the current bucket scan. The
/// paper expected limited benefit ("the amount of CPU work per memory
/// access tends to be small"); bench/ablation_prefetch quantifies it on
/// modern hardware.
/// DirectMemory only: prefetch hints have no meaning in the simulator.
inline std::vector<Bun> SimpleHashJoinPrefetch(std::span<const Bun> l,
                                               std::span<const Bun> r,
                                               size_t prefetch_distance,
                                               JoinStats* stats = nullptr,
                                               size_t result_hint = 0) {
  DirectMemory mem;
  WallTimer t;
  std::vector<Bun> out;
  out.reserve(result_hint != 0 ? result_hint : std::min(l.size(), r.size()));
  BucketChainedHashTable<DirectMemory> table(r, /*shift=*/0,
                                             kDefaultChainLength, mem);
  for (size_t i = 0; i < l.size(); ++i) {
    if (prefetch_distance > 0 && i + prefetch_distance < l.size()) {
      table.PrefetchBucket(l[i + prefetch_distance].tail);
    }
    Bun lt = l[i];
    table.Probe(lt, mem,
                [&](Bun rt) { EmitResult(out, Bun{lt.head, rt.head}, mem); });
  }
  if (stats != nullptr) {
    *stats = JoinStats{};
    stats->join_ms = t.ElapsedMillis();
    stats->result_count = out.size();
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_SIMPLE_HASH_JOIN_H_
