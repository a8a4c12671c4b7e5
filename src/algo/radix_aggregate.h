// Radix-partitioned grouping: the paper's clustering idea (§3.3) applied to
// the aggregation problem of §3.2. Plain hash-grouping is superior to
// sort/merge *when the group hash table fits the caches*; once the number
// of distinct groups outgrows L1/L2/TLB, it exhibits exactly the random
// access pattern the paper diagnoses for non-partitioned hash-join.
// Radix-clustering the input on the group key first makes each partition's
// group table cache-resident again — the same cure, applied to GROUP BY.
// (MonetDB adopted this generalization; here it serves as the paper's
// "future work" direction made concrete.)
#ifndef CCDB_ALGO_RADIX_AGGREGATE_H_
#define CCDB_ALGO_RADIX_AGGREGATE_H_

#include "algo/aggregate.h"
#include "algo/radix_cluster.h"

namespace ccdb {

/// Groups `keys`/`values` by key, summing values, after radix-clustering
/// on `bits` of the key hash in `passes` passes. Per-cluster grouping uses
/// one reusable open-addressing table (epoch-stamped, so it is never
/// cleared between clusters). Result keys appear in per-cluster
/// first-appearance order.
template <class Mem, class HashFn = IdentityHash>
StatusOr<GroupAggregates> RadixGroupSum(std::span<const uint32_t> keys,
                                        std::span<const uint32_t> values,
                                        int bits, int passes, Mem& mem) {
  CCDB_CHECK(keys.size() == values.size());
  if (bits > 24) {
    // The clustered relation carries 2^bits + 1 boundaries; beyond 24 bits
    // that is no longer a sane grouping granularity (and 2^24 already means
    // <= a handful of groups per cluster).
    return Status::InvalidArgument("RadixGroupSum supports at most 24 bits");
  }
  // Pack into BUNs: head = value payload, tail = group key (the radix key).
  std::vector<Bun> pairs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    mem.Store(&pairs[i], Bun{mem.Load(&values[i]), mem.Load(&keys[i])});
  }
  RadixClusterOptions opt{bits, passes, {}};
  CCDB_ASSIGN_OR_RETURN(
      ClusteredRelation clustered,
      (RadixCluster<Mem, HashFn>(std::span<const Bun>(pairs), opt, mem)));
  pairs.clear();
  pairs.shrink_to_fit();

  // Reusable scratch table sized for the largest cluster.
  const std::vector<uint64_t>& bounds = clustered.bounds;
  uint64_t max_cluster = 0;
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    max_cluster = std::max(max_cluster, bounds[c + 1] - bounds[c]);
  }
  size_t table_size = NextPowerOfTwo(std::max<uint64_t>(max_cluster * 2, 16));
  uint32_t table_mask = static_cast<uint32_t>(table_size - 1);
  std::vector<uint32_t> slot_epoch(table_size, 0);
  std::vector<uint32_t> slot_group(table_size, 0);
  uint32_t epoch = 0;

  GroupAggregates out;
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    uint64_t lo = bounds[c], hi = bounds[c + 1];
    if (lo == hi) continue;
    ++epoch;
    for (uint64_t i = lo; i < hi; ++i) {
      Bun t = mem.Load(&clustered.tuples[i]);
      // Probe above the radix bits so clusters spread within the table.
      uint32_t h = (HashFn::Hash(t.tail) >> bits) & table_mask;
      for (;;) {
        if (mem.Load(&slot_epoch[h]) != epoch) {
          // Fresh slot: new group.
          mem.Store(&slot_epoch[h], epoch);
          mem.Store(&slot_group[h], static_cast<uint32_t>(out.keys.size()));
          out.keys.push_back(t.tail);
          out.sums.push_back(t.head);
          out.counts.push_back(1);
          break;
        }
        uint32_t g = mem.Load(&slot_group[h]);
        if (mem.Load(&out.keys[g]) == t.tail) {
          mem.Update(&out.sums[g], static_cast<uint64_t>(t.head));
          mem.Update(&out.counts[g], uint64_t{1});
          break;
        }
        h = (h + 1) & table_mask;
      }
    }
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_RADIX_AGGREGATE_H_
