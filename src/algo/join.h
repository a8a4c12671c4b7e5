// The join driver (§3.3): an equi-join as a cluster phase and a join phase,
// the way JoinOp runs it. A JoinBuild prepares the build (inner) relation
// once for a JoinShape:
//  - sort-merge: a sorted copy;
//  - radix-join and clustered hash joins: the clustered tuples plus their
//    cluster bounds, and for hash one bucket-sorted table with a slice per
//    cluster, built by the task that first probes it (§3.3's order);
//  - the B = 0 hash join: one table over the whole build;
//  - positional: an array of build heads indexed by key - key_min (§3.1),
//    for unique build keys over a known domain.
// A probe relation is then reorganized the same way into caller-owned
// buffers: clustered or sorted, or not at all for the positional and the
// B = 0 hash join, whose loops read the probe in order. Those two also take
// the probe as a KeyColumn (algo/join_common.h), keys read where they live
// with positions as heads, which is how JoinOp probes them: nothing of the
// chunk is copied. The probe's cluster bounds list the probe tasks, one per
// pair of non-empty clusters with equal radix value. Each task runs its
// kernel's loop (MergeSortedByTail, NestedLoopJoinInto, ProbeHashTable or
// ProbeSlots) into any sink. JoinOp runs the tasks of each probe chunk on
// its pool, writing the matches straight into its two position lists;
// JoinRelations runs them serially over two whole relations, for the
// paper's figures and the tests. ProbeSlots prefetches each head-array slot
// kSlotLookAhead = 16 probes early once the array outgrows an L1, which made
// the probe of a 2 MiB array 3-4.5x faster; the hash probe does not prefetch.
#ifndef CCDB_ALGO_JOIN_H_
#define CCDB_ALGO_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "algo/hash_table.h"
#include "algo/nested_loop_join.h"
#include "algo/radix_cluster.h"
#include "algo/radix_sort.h"
#include "util/timer.h"

namespace ccdb {

/// The merge loop over two tail-sorted runs: appends [l.head, r.head] pairs
/// to `out`, the cross product of each equal-value run, l-major.
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

/// The positional join's empty slot. A build head equal to it cannot be
/// stored, so Prepare rejects it.
inline constexpr uint32_t kNoSlot = UINT32_MAX;

/// ProbeSlots prefetches the slot 16 probes ahead over a head array past an
/// L1. A smaller one stays cached, and there the extra key read only costs:
/// a 1,000-key probe through a candidate list (star_join's fk_b join) ran
/// 5-20 % slower with it.
inline constexpr size_t kSlotLookAhead = 16;
inline constexpr uint64_t kSlotLookAheadMinBytes = 32 << 10;

/// The positional probe loop (§3.1's positional lookup): appends
/// [probe head, build head] to `out` for every tuple of `probe` (a BUN span
/// or a KeyColumn) whose key has a build tuple, reading slots[key - key_min]
/// of the `key_range`-entry head array. A key outside the domain reads slot
/// 0 instead and keeps nothing, so no probe takes a data-dependent branch.
/// Under DirectMemory, over an array past kSlotLookAheadMinBytes, it first
/// prefetches tuple i + kLookAhead's slot, so the misses overlap: 20-29 ->
/// 6-7 ns per probe over 2 MiB (micro_join, 4-core x86), where 8 ahead was
/// no faster and 32 and 64 were slower. The simulator sees no prefetch.
template <size_t kLookAhead = kSlotLookAhead, class Mem, class Probe,
          class Out>
void ProbeSlots(const uint32_t* slots, KeyDomain domain, const Probe& probe,
                Mem& mem, Out& out) {
  // Slot key - key_min, or slot 0 when `in` is false. Keys below key_min
  // wrap to at least 2^32 - key_min >= key_range.
  auto slot_of = [&](uint32_t key, bool& in) {
    uint32_t off = key - domain.key_min;
    in = off < domain.key_range;
    return off & (0u - static_cast<uint32_t>(in));
  };
  const size_t n = probe.size();
  size_t ahead_end = 0;  // tuples [0, ahead_end) prefetch
  if constexpr (std::is_same_v<std::decay_t<Mem>, DirectMemory> &&
                kLookAhead > 0) {
    if (domain.key_range * sizeof(uint32_t) > kSlotLookAheadMinBytes &&
        n > kLookAhead) {
      ahead_end = n - kLookAhead;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    bool in = false;
    if (i < ahead_end) {
      __builtin_prefetch(
          &slots[slot_of(ProbeTuple(probe, i + kLookAhead, mem).tail, in)]);
    }
    Bun t = ProbeTuple(probe, i, mem);
    uint32_t head = mem.Load(&slots[slot_of(t.tail, in)]);
    EmitResultIf(out, Bun{t.head, head}, in & (head != kNoSlot), mem);
  }
}

/// One probe task: the probe range [lo, hi) of a reorganized probe relation
/// and the build cluster `part` it joins.
struct JoinTask {
  size_t lo, hi, part;
};

/// A probe relation reorganized for a JoinBuild. The caller keeps it across
/// probes, so joining chunk after chunk allocates only when a chunk
/// outgrows the buffers.
struct JoinProbe {
  /// What the tasks read: `clustered.tuples`, or the probe input itself
  /// for the kernels that read it in order (the B = 0 hash join and the
  /// positional join). Those need no JoinProbe at all when the probe is a
  /// KeyColumn: its tasks are listed over bounds {0, n}.
  std::span<const Bun> tuples;
  /// The sorted or clustered copy. Its bounds are always set, to {0, n}
  /// when nothing is clustered.
  ClusteredRelation clustered;
  BunVec scratch;  // the multi-pass cluster's ping-pong target
};

template <class Mem, class HashFn = IdentityHash>
class JoinBuild {
 public:
  using Memory = Mem;

  const JoinShape& shape() const { return shape_; }

  /// Prepares build relation `r` for `shape`. The build keeps what it
  /// needs, so `r` need not outlive it.
  Status Prepare(std::span<const Bun> r, const JoinShape& shape, Mem& mem) {
    if (shape.clusters()) {
      ClusteredRelation clustered;
      BunVec scratch;
      CCDB_RETURN_IF_ERROR((RadixClusterInto<Mem, HashFn>(
          r, ClusterOptions(shape), mem, &clustered, &scratch)));
      return Prepare(std::move(clustered), shape, mem);
    }
    *this = JoinBuild{};
    shape_ = shape;
    bounds_.assign({0, r.size()});
    switch (shape.kernel) {
      case JoinKernel::kHash:
        // All shard tasks share the one table, so it is built here.
        table_ = Table(r, 0, kDefaultChainLength, mem);
        return Status::Ok();
      case JoinKernel::kPositional:
        return BuildSlots(r, mem);
      default:
        SortedCopy(r, mem, &tuples_);
        return Status::Ok();
    }
  }

  /// Prepares a build relation that is already clustered on `shape.bits`
  /// (a hash or nested-loop shape).
  Status Prepare(ClusteredRelation r, const JoinShape& shape, Mem& mem) {
    if (shape.kernel == JoinKernel::kSortMerge ||
        shape.kernel == JoinKernel::kPositional || r.bits != shape.bits) {
      return Status::InvalidArgument(
          "a clustered build needs a hash or nested-loop shape on its bits");
    }
    if (!shape.clusters()) {  // the B = 0 hash join
      return Prepare(std::span<const Bun>(r.tuples), shape, mem);
    }
    *this = JoinBuild{};
    shape_ = shape;
    bounds_ = std::move(r.bounds);
    tuples_ = std::move(r.tuples);
    if (shape.kernel == JoinKernel::kHash) {
      table_ = Table(bounds_, shape.bits, kDefaultChainLength);
    }
    return Status::Ok();
  }

  /// Reorganizes probe relation `l` as the build is: a sorted or clustered
  /// copy into `probe`'s buffers, or `l` as is for the B = 0 hash join and
  /// the positional join.
  Status Reorganize(std::span<const Bun> l, Mem& mem, JoinProbe* probe) const {
    ClusteredRelation& c = probe->clustered;
    if (shape_.clusters()) {
      CCDB_RETURN_IF_ERROR((RadixClusterInto<Mem, HashFn>(
          l, ClusterOptions(shape_), mem, &c, &probe->scratch)));
      probe->tuples = c.tuples;
      return Status::Ok();
    }
    c.bounds.assign({0, l.size()});
    if (shape_.kernel == JoinKernel::kSortMerge) {
      SortedCopy(l, mem, &c.tuples);
      probe->tuples = c.tuples;
    } else {
      probe->tuples = l;
    }
    return Status::Ok();
  }

  /// Lists the tasks over a probe relation with cluster bounds
  /// `probe_bounds`: one per pair of non-empty clusters with equal radix
  /// value, in radix order. Sort-merge has one task. The B = 0 hash join
  /// and the positional join split the probe into `shards` ranges, and
  /// have none over an empty build.
  void Tasks(std::span<const uint64_t> probe_bounds, size_t shards,
             std::vector<JoinTask>* tasks) const {
    tasks->clear();
    const size_t n = probe_bounds.back();
    if (shape_.kernel == JoinKernel::kSortMerge) {
      tasks->push_back({0, n, 0});
    } else if (!shape_.clusters()) {
      if (bounds_[1] == 0) shards = 0;
      for (size_t s = 0; s < shards; ++s) {
        tasks->push_back({n * s / shards, n * (s + 1) / shards, 0});
      }
    } else {
      CCDB_CHECK(probe_bounds.size() == bounds_.size());
      for (size_t c = 0; c + 1 < bounds_.size(); ++c) {
        if (probe_bounds[c + 1] > probe_bounds[c] &&
            bounds_[c + 1] > bounds_[c]) {
          tasks->push_back({probe_bounds[c], probe_bounds[c + 1], c});
        }
      }
    }
  }

  /// Runs `task` over `probe` (the tuples its bounds were listed from),
  /// appending [probe head, build head] per match to `out`. A hash task
  /// first builds its cluster's slice unless an earlier task did. The tasks
  /// of one list may run concurrently: clustered ones name distinct
  /// clusters, and B = 0 shards share the slice Prepare built.
  template <class Out>
  void Run(const JoinTask& task, std::span<const Bun> probe, Mem& mem,
           Out& out) {
    std::span<const Bun> l = probe.subspan(task.lo, task.hi - task.lo);
    switch (shape_.kernel) {
      case JoinKernel::kSortMerge:
        MergeSortedByTail(l, std::span<const Bun>(tuples_), mem, out);
        return;
      case JoinKernel::kNestedLoop: {
        uint64_t lo = bounds_[task.part], hi = bounds_[task.part + 1];
        NestedLoopJoinInto(
            l, std::span<const Bun>(tuples_).subspan(lo, hi - lo), mem, out);
        return;
      }
      default:
        RunInOrder(task, l, mem, out);
    }
  }

  /// Runs `task` over a probe read in place. Only the kernels that read the
  /// probe in order take one (shape().reorganizes() is false).
  template <class T, bool kThroughRows, class Out>
  void Run(const JoinTask& task, const KeyColumn<T, kThroughRows>& probe,
           Mem& mem, Out& out) {
    CCDB_DCHECK(!shape_.reorganizes());
    RunInOrder(task, probe.subspan(task.lo, task.hi - task.lo), mem, out);
  }

  /// Runs every task over `probe`, serially and in task order.
  template <class Out>
  void RunAll(std::span<const Bun> probe,
              std::span<const uint64_t> probe_bounds, Mem& mem, Out& out) {
    std::vector<JoinTask> tasks;
    Tasks(probe_bounds, 1, &tasks);
    for (const JoinTask& t : tasks) Run(t, probe, mem, out);
  }

 private:
  using Table = BucketChainedHashTable<Mem, HashFn>;

  /// The hash and positional tasks: one loop over `l`, tuple by tuple.
  template <class Probe, class Out>
  void RunInOrder(const JoinTask& task, const Probe& l, Mem& mem, Out& out) {
    if (shape_.kernel == JoinKernel::kPositional) {
      ProbeSlots(slots_.get(), shape_.domain, l, mem, out);
      return;
    }
    CCDB_DCHECK(shape_.kernel == JoinKernel::kHash);
    table_.Build(task.part, tuples_, mem);
    ProbeHashTable(table_, l, mem, out, task.part);
  }

  static RadixClusterOptions ClusterOptions(const JoinShape& shape) {
    return {.bits = shape.bits, .passes = shape.passes, .bits_per_pass = {}};
  }

  static void SortedCopy(std::span<const Bun> in, Mem& mem, BunVec* out) {
    out->resize(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      mem.Store(&(*out)[i], mem.Load(&in[i]));
    }
    QuickSortByTail(std::span<Bun>(*out), mem);
  }

  /// Fills the head array with kNoSlot, then stores each build head at
  /// slot key - key_min. Every probe row then has at most one match.
  Status BuildSlots(std::span<const Bun> r, Mem& mem) {
    const KeyDomain d = shape_.domain;
    if (d.key_range > (uint64_t{1} << 32) - d.key_min) {
      return Status::InvalidArgument("positional domain past the uint32 keys");
    }
    slots_ = std::make_unique_for_overwrite<uint32_t[]>(d.key_range);
    for (uint64_t i = 0; i < d.key_range; ++i) mem.Store(&slots_[i], kNoSlot);
    for (size_t i = 0; i < r.size(); ++i) {
      Bun t = mem.Load(&r[i]);
      uint32_t off = t.tail - d.key_min;
      if (off >= d.key_range) {
        return Status::InvalidArgument("build key outside the domain");
      }
      if (t.head == kNoSlot) {
        return Status::InvalidArgument("build head equals the empty slot");
      }
      if (mem.Load(&slots_[off]) != kNoSlot) {
        return Status::FailedPrecondition("repeated build key");
      }
      mem.Store(&slots_[off], t.head);
    }
    return Status::Ok();
  }

  JoinShape shape_;
  // Build cluster c is [bounds_[c], bounds_[c + 1]); {0, n} unclustered.
  std::vector<uint64_t> bounds_{0, 0};
  BunVec tuples_;  // sort-merge: the sorted copy; clustered: the clusters
  Table table_;    // hash: a slice per cluster, built on first probe
  std::unique_ptr<uint32_t[]> slots_;  // positional: a head per domain key
};

/// Joins two whole relations: prepares `r` as the build, reorganizes `l`,
/// and runs every task serially into one vector. `stats` (optional)
/// receives the phase split JoinOp reports: the build's preparation as
/// cluster_right, the probe's reorganization as cluster_left, and the
/// tasks as join, which includes a clustered hash join's table builds.
template <class Mem, class HashFn = IdentityHash>
StatusOr<std::vector<Bun>> JoinRelations(std::span<const Bun> l,
                                         std::span<const Bun> r,
                                         const JoinShape& shape, Mem& mem,
                                         JoinStats* stats = nullptr) {
  JoinBuild<Mem, HashFn> build;
  JoinProbe probe;
  WallTimer t_build;
  CCDB_RETURN_IF_ERROR(build.Prepare(r, shape, mem));
  double build_ms = t_build.ElapsedMillis();
  WallTimer t_probe;
  CCDB_RETURN_IF_ERROR(build.Reorganize(l, mem, &probe));
  double probe_ms = t_probe.ElapsedMillis();
  WallTimer t_join;
  std::vector<Bun> out;
  out.reserve(std::min(l.size(), r.size()));
  build.RunAll(probe.tuples, probe.clustered.bounds, mem, out);
  if (stats != nullptr) {
    *stats = JoinStats{};
    stats->cluster_left_ms = probe_ms;
    stats->cluster_right_ms = build_ms;
    stats->join_ms = t_join.ElapsedMillis();
    stats->result_count = out.size();
    stats->bits = shape.bits;
    stats->passes = shape.passes;
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_JOIN_H_
