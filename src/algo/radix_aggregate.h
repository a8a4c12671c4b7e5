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

#include <algorithm>

#include "algo/aggregate.h"
#include "algo/radix_cluster.h"

namespace ccdb {

/// Largest group count RadixGroupSum presizes a cluster's table for:
/// 2^15 slots, 256 KiB of slot array.
inline constexpr size_t kMaxPresizedGroups = size_t{1} << 14;

/// Groups `keys`/`values` by key, summing values, after radix-clustering
/// on `bits` of the group table's key hash (MurmurHash for one key word) in
/// `passes` passes. Each non-empty cluster is split into a key and a value
/// column while cached and folds column-wise (AddColumns) into its own
/// GroupAggTable, presized for the cluster's rows up to kMaxPresizedGroups,
/// which takes its slot index from the hash bits above the cluster's, and
/// appends that table's groups: result keys appear in per-cluster
/// first-appearance order.
template <class Mem>
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
      (RadixCluster<Mem, MurmurHash>(std::span<const Bun>(pairs), opt, mem)));
  pairs.clear();
  pairs.shrink_to_fit();

  GroupAggregates out;
  const std::vector<uint64_t>& bounds = clustered.bounds;
  std::vector<uint32_t> split;  // a cluster's keys, then its values
  for (size_t c = 0; c + 1 < bounds.size(); ++c) {
    const size_t n = bounds[c + 1] - bounds[c];
    if (n == 0) continue;
    split.resize(2 * n);
    for (size_t i = 0; i < n; ++i) {
      Bun t = mem.Load(&clustered.tuples[bounds[c] + i]);
      mem.Store(&split[i], t.tail);
      mem.Store(&split[n + i], t.head);
    }
    const uint32_t* cols[] = {split.data(), split.data() + n};
    // At most n groups: presizing spares the table its doublings, and the
    // cap keeps a huge cluster (B = 0) from allocating for all its rows.
    GroupAggTable<Mem> table(/*key_width=*/1, /*num_values=*/1,
                             std::min<size_t>(n, kMaxPresizedGroups));
    table.AddColumns({cols, 1}, {cols + 1, 1}, 0, n, mem);
    for (size_t g = 0; g < table.num_groups(); ++g) {
      out.keys.push_back(table.key(g, 0));
      out.sums.push_back(table.state(g, 0).sum);
      out.counts.push_back(table.group_rows(g));
    }
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_RADIX_AGGREGATE_H_
