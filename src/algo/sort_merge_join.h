// Sort-merge join: the second Fig. 13 baseline. Sorts copies of both
// relations on the join value, then merges. As §3.2 argues, the sort phase
// has random access behaviour over the entire relation — which is why it
// loses to cache-conscious algorithms as relations outgrow the caches.
#ifndef CCDB_ALGO_SORT_MERGE_JOIN_H_
#define CCDB_ALGO_SORT_MERGE_JOIN_H_

#include "algo/join_common.h"
#include "algo/radix_sort.h"
#include "util/timer.h"

namespace ccdb {

enum class SortAlgo {
  kQuickSort,  ///< comparison sort: the paper's "random access" baseline
  kRadixSort,  ///< LSB radix sort: sequential passes (what radix-join
               ///< degenerates to at cluster size 1)
};

/// Merge phase over two tail-sorted runs, appending [l.head, r.head] pairs
/// to `out` (equal-value runs emit the cross product, l-major). Shared by
/// SortMergeJoin and JoinOp's chunked sort-merge path so their emit order
/// can never drift apart.
template <class Mem, class Out>
void MergeSortedByTail(std::span<const Bun> ls, std::span<const Bun> rs,
                       Mem& mem, Out& out) {
  size_t i = 0, j = 0;
  while (i < ls.size() && j < rs.size()) {
    uint32_t vl = mem.Load(&ls[i]).tail;
    uint32_t vr = mem.Load(&rs[j]).tail;
    if (vl < vr) {
      ++i;
    } else if (vr < vl) {
      ++j;
    } else {
      // Equal-value runs: emit the cross product.
      size_t i2 = i;
      while (i2 < ls.size() && mem.Load(&ls[i2]).tail == vl) ++i2;
      size_t j2 = j;
      while (j2 < rs.size() && mem.Load(&rs[j2]).tail == vl) ++j2;
      for (size_t a = i; a < i2; ++a) {
        Bun lt = mem.Load(&ls[a]);
        for (size_t b = j; b < j2; ++b) {
          Bun rt = mem.Load(&rs[b]);
          EmitResult(out, Bun{lt.head, rt.head}, mem);
        }
      }
      i = i2;
      j = j2;
    }
  }
}

template <class Mem>
std::vector<Bun> SortMergeJoin(std::span<const Bun> l, std::span<const Bun> r,
                               Mem& mem, JoinStats* stats = nullptr,
                               SortAlgo sort = SortAlgo::kQuickSort,
                               size_t result_hint = 0) {
  WallTimer t_sort;
  std::vector<Bun> ls(l.size()), rs(r.size());
  for (size_t i = 0; i < l.size(); ++i) mem.Store(&ls[i], mem.Load(&l[i]));
  for (size_t i = 0; i < r.size(); ++i) mem.Store(&rs[i], mem.Load(&r[i]));
  if (sort == SortAlgo::kQuickSort) {
    QuickSortByTail(std::span<Bun>(ls), mem);
    QuickSortByTail(std::span<Bun>(rs), mem);
  } else {
    RadixSortByTail(std::span<Bun>(ls), mem);
    RadixSortByTail(std::span<Bun>(rs), mem);
  }
  double sort_ms = t_sort.ElapsedMillis();

  WallTimer t_merge;
  std::vector<Bun> out;
  out.reserve(result_hint != 0 ? result_hint : std::min(l.size(), r.size()));
  MergeSortedByTail<Mem>(ls, rs, mem, out);
  if (stats != nullptr) {
    *stats = JoinStats{};
    // Report the sort as the "cluster" phase: it plays the same role
    // (reorganize for locality) in the total-cost comparison of Fig. 13.
    stats->cluster_left_ms = sort_ms / 2;
    stats->cluster_right_ms = sort_ms / 2;
    stats->join_ms = t_merge.ElapsedMillis();
    stats->result_count = out.size();
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_SORT_MERGE_JOIN_H_
