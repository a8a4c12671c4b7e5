// Bucket-sorted hash table (§3.2/§3.3): the build tuples are copied into
// bucket order behind a uint32 offset array, so bucket b is the contiguous
// run tuples[off[b], off[b+1]). Building takes one histogram pass and one
// scatter pass; a probe reads two adjacent offsets and scans one run
// instead of walking a chain of dependent `heads -> build -> next` loads.
// With the default of one tuple per bucket, the table costs the 8-byte BUN
// plus about 4 bytes of offsets per tuple — the paper's "12 bytes per tuple
// including hash table" used by the phash strategies.
//
// A clustered build (§3.3) is one table with a slice per cluster: its own
// offsets and padding tuple, sharing no word with another slice. The join
// driver builds each slice in the task that first probes it, so builds
// count in join_ms, not cluster_right_ms. One relation is one slice.
//
// Once partitioning keeps the table cache-resident, a probe's cost is CPU
// work, and most of that is mispredicted branches on the run length and the
// key compare. So each slice carries one padding tuple after its last
// run, which makes tuples[off[b]] readable for every bucket, empty ones
// included. A probe reads that first tuple unconditionally and hands it on
// with a keep flag, (off[b] < off[b+1]) & (key equal), which a match sink
// turns into a conditional advance (the no-branch selection of Ross,
// "Selection conditions in main memory", TODS 2004). Only a run longer than
// one tuple takes a loop over the rest.
//
// Each bucket is filled back to front, so a probe emits duplicate keys in
// reverse build order — the Monet bucket-chain order (head insertion) that
// every join's output order is pinned to.
#ifndef CCDB_ALGO_HASH_TABLE_H_
#define CCDB_ALGO_HASH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/join_common.h"
#include "util/bits.h"

namespace ccdb {

/// Default tuples-per-bucket divisor: one tuple per bucket on average, so a
/// probe scans a run of about one tuple.
inline constexpr size_t kDefaultChainLength = 1;

template <class Mem, class HashFn = IdentityHash>
class BucketChainedHashTable {
 public:
  BucketChainedHashTable() = default;

  /// Allocates one empty slice per cluster of a clustered build, cluster c
  /// holding bounds[c + 1] - bounds[c] tuples; Build(c, ...) fills slice c.
  /// `shift` discards hash bits already used for radix clustering (within a
  /// cluster all B low bits are equal, so buckets must be chosen from the
  /// bits above them).
  BucketChainedHashTable(std::span<const uint64_t> bounds, int shift,
                         size_t avg_chain)
      : shift_(shift), bounds_(bounds.begin(), bounds.end()),
        off_begin_(bounds.size()) {
    for (size_t c = 0; c + 1 < bounds.size(); ++c) {
      uint64_t want = (bounds[c + 1] - bounds[c] + avg_chain - 1) / avg_chain;
      uint64_t nbuckets = NextPowerOfTwo(std::max<uint64_t>(want, 1));
      off_begin_[c + 1] = off_begin_[c] + nbuckets + 1;
    }
    off_.assign(off_begin_.back(), 0);
    // One padding tuple past each slice's last run: an empty last bucket's
    // first tuple is still in bounds.
    tuples_.resize(bounds_.back() + bounds_.size() - 1);
  }

  /// One table over a copy of `build` (the span need not outlive the
  /// table): the one-cluster case, built at once.
  BucketChainedHashTable(std::span<const Bun> build, int shift,
                         size_t avg_chain, Mem& mem)
      : BucketChainedHashTable(std::vector<uint64_t>{0, build.size()}, shift,
                               avg_chain) {
    Build(0, build, mem);
  }

  /// Fills slice c with cluster c of `clustered`, in bucket order, unless
  /// it holds it already: a slice's last offset is 0 until it is built, and
  /// then its tuple count.
  void Build(size_t c, std::span<const Bun> clustered, Mem& mem) {
    const uint64_t n = bounds_[c + 1] - bounds_[c];
    if (off_[off_begin_[c + 1] - 1] == n) return;
    std::span<const Bun> cluster = clustered.subspan(bounds_[c], n);
    const View v = view(c);
    uint32_t* off = &off_[off_begin_[c]];
    Bun* tuples = &tuples_[bounds_[c] + c];
    // Histogram, then an inclusive prefix sum: off[b] = end of bucket b.
    for (size_t i = 0; i < cluster.size(); ++i) {
      mem.Update(&off[v.Bucket(mem.Load(&cluster[i]).tail)], 1u);
    }
    uint32_t sum = 0;
    for (size_t b = 0; b <= v.mask; ++b) {
      sum += mem.Load(&off[b]);
      mem.Store(&off[b], sum);
    }
    mem.Store(&off[v.mask + 1], sum);
    // Scatter back to front: off[b] walks down to the start of bucket b.
    for (size_t i = 0; i < cluster.size(); ++i) {
      Bun t = mem.Load(&cluster[i]);
      uint32_t* end = &off[v.Bucket(t.tail)];
      uint32_t pos = mem.Load(end) - 1;
      mem.Store(end, pos);
      mem.Store(&tuples[pos], t);
    }
  }

  /// What a probe reads of the table, by value. A probe loop keeps one in
  /// registers; read through the table instead, the fields would be
  /// reloaded after every result store that might alias them.
  struct View {
    int shift;
    uint32_t mask;
    const uint32_t* off;  // bucket b = tuples[off[b], off[b + 1])
    const Bun* tuples;    // the runs, then one padding tuple

    CCDB_ALWAYS_INLINE uint32_t Bucket(uint32_t tail) const {
      return (HashFn::Hash(tail) >> shift) & mask;
    }

    /// The probe step, the only one: calls `emit_if(t, keep)` once with
    /// the first tuple of `key`'s bucket (the next bucket's, or the padding
    /// tuple, when it is empty) and keep = whether it is a match, without a
    /// data-dependent branch; then `emit_if(t, true)` for every further
    /// match in the run.
    template <class Fn>
    CCDB_ALWAYS_INLINE void Probe(uint32_t key, Mem& mem,
                                  Fn&& emit_if) const {
      uint32_t b = Bucket(key);
      uint32_t lo = mem.Load(&off[b]);
      uint32_t hi = mem.Load(&off[b + 1]);
      Bun first = mem.Load(&tuples[lo]);
      emit_if(first, (lo < hi) & (first.tail == key));
      if (hi - lo > 1) [[unlikely]] {
        for (uint32_t i = lo + 1; i < hi; ++i) {
          Bun t = mem.Load(&tuples[i]);
          if (t.tail == key) emit_if(t, true);
        }
      }
    }
  };

  /// Slice c's view; slice 0 is the whole one-cluster table.
  View view(size_t c = 0) const {
    auto mask = static_cast<uint32_t>(off_begin_[c + 1] - off_begin_[c] - 2);
    return {shift_, mask, &off_[off_begin_[c]], &tuples_[bounds_[c] + c]};
  }

  size_t bucket_count() const { return view().mask + 1; }

  /// Number of tuples in bucket `b` of slice 0 (test/diagnostic use).
  size_t ChainLength(uint32_t b) const { return off_[b + 1] - off_[b]; }

 private:
  int shift_ = 0;
  // Slice c: offsets from off_begin_[c], tuples from bounds_[c] + c.
  std::vector<uint64_t> bounds_, off_begin_;
  std::vector<uint32_t> off_;
  std::vector<Bun> tuples_;
};

/// The hash-join probe loop: probes slice `slice` of `table` with every
/// tuple of `probe` (a BUN span or a KeyColumn) in order and appends
/// [probe.head, build.head] per match to `out`: the loop of every hash-join
/// task of the join driver (algo/join.h).
template <class Mem, class HashFn, class Probe, class Out>
void ProbeHashTable(const BucketChainedHashTable<Mem, HashFn>& table,
                    const Probe& probe, Mem& mem, Out& out, size_t slice = 0) {
  const auto view = table.view(slice);
  for (size_t i = 0; i < probe.size(); ++i) {
    Bun lt = ProbeTuple(probe, i, mem);
    view.Probe(lt.tail, mem, [&](Bun rt, bool keep) {
      EmitResultIf(out, Bun{lt.head, rt.head}, keep, mem);
    });
  }
}

}  // namespace ccdb

#endif  // CCDB_ALGO_HASH_TABLE_H_
