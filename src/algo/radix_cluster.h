// Radix-cluster (§3.3.1, Fig. 6): splits a relation into H = 2^B clusters on
// the lower B bits of the hash of the join column, in P passes of Bp bits
// each (sum Bp = B), taking the *leftmost* of the B bits first. Each pass
// subdivides every existing cluster into 2^Bp new ones, so the number of
// concurrently written output regions per pass stays at 2^Bp — below the
// number of cache lines / TLB entries if Bp is chosen well. With P = 1 this
// is the straightforward clustering of [SKN94] (Fig. 5).
//
// After clustering on B bits the relation is ordered on its B radix bits;
// the last pass's region bounds are the cluster boundaries. They come with
// the result, so the join driver (algo/join.h) pairs clusters through the
// bounds instead of rediscovering them from the radix bits.
#ifndef CCDB_ALGO_RADIX_CLUSTER_H_
#define CCDB_ALGO_RADIX_CLUSTER_H_

#include <span>
#include <vector>

#include "algo/join_common.h"
#include "mem/arena.h"
#include "util/bits.h"
#include "util/status.h"
#include "util/timer.h"

namespace ccdb {

/// Tuning parameters (§3.4): B (`bits`), P (`passes`), and optionally an
/// explicit Bp split (`bits_per_pass`, must sum to `bits`). When
/// `bits_per_pass` is empty the bits are distributed evenly, larger shares
/// first, which §3.4.2 found essential.
struct RadixClusterOptions {
  int bits = 0;
  int passes = 1;
  std::vector<int> bits_per_pass;

  Status Validate() const;
  /// The effective Bp vector (even split unless given explicitly).
  std::vector<int> EffectiveBits() const;
};

struct RadixClusterStats {
  std::vector<double> pass_ms;
  double total_ms = 0;
};

/// Arena-backed Bun buffer: large clustered relations and partition scratch
/// land on huge-page-eligible mappings (mem/arena.h), shrinking the TLB
/// footprint that §3.1 identifies as the fan-out limit; every buffer start
/// is cache-line aligned, so concurrent partition writers never share a
/// line.
using BunVec = ColVec<Bun>;

/// A relation radix-clustered on `bits` bits: tuples ordered ascending on
/// (Hash(tail) & LowMask32(bits)). Cluster c (c < H = 2^bits) is
/// tuples[bounds[c], bounds[c + 1]); `bounds` has H + 1 entries.
struct ClusteredRelation {
  BunVec tuples;
  std::vector<uint64_t> bounds;
  int bits = 0;
};

namespace internal {

/// One clustering pass over [src, src+n) into dst, subdividing each region
/// given in `region_bounds` (size R+1) on `pass_bits` bits at `shift`.
/// Appends the new region bounds (size R*2^pass_bits+1) to `new_bounds`.
/// Two-phase per region: histogram, then scatter — the classic
/// implementation whose write pattern touches 2^pass_bits regions at a time.
template <class Mem, class HashFn>
void ClusterPass(const Bun* src, Bun* dst,
                 const std::vector<uint64_t>& region_bounds, int shift,
                 int pass_bits, Mem& mem, std::vector<uint64_t>* new_bounds) {
  size_t hp = size_t{1} << pass_bits;
  uint32_t mask = LowMask32(pass_bits);
  std::vector<uint32_t> hist(hp);
  std::vector<uint64_t> offset(hp);
  new_bounds->clear();
  new_bounds->push_back(region_bounds.front());
  for (size_t r = 0; r + 1 < region_bounds.size(); ++r) {
    uint64_t lo = region_bounds[r];
    uint64_t hi = region_bounds[r + 1];
    std::fill(hist.begin(), hist.end(), 0u);
    for (uint64_t i = lo; i < hi; ++i) {
      Bun t = mem.Load(&src[i]);
      uint32_t d = (HashFn::Hash(t.tail) >> shift) & mask;
      mem.Update(&hist[d], 1u);
    }
    uint64_t acc = lo;
    for (size_t d = 0; d < hp; ++d) {
      offset[d] = acc;
      acc += hist[d];
      new_bounds->push_back(acc);
    }
    for (uint64_t i = lo; i < hi; ++i) {
      Bun t = mem.Load(&src[i]);
      uint32_t d = (HashFn::Hash(t.tail) >> shift) & mask;
      uint64_t pos = offset[d]++;
      mem.Store(&dst[pos], t);
    }
  }
}

}  // namespace internal

/// Clusters `input` on `options.bits` bits in `options.passes` passes into
/// `out`, reusing the buffers `out` and `scratch` (the multi-pass ping-pong
/// target) already hold: a caller that clusters one chunk after another
/// allocates only when a chunk outgrows them. The input is left untouched.
template <class Mem, class HashFn = IdentityHash>
Status RadixClusterInto(std::span<const Bun> input,
                        const RadixClusterOptions& options, Mem& mem,
                        ClusteredRelation* out, BunVec* scratch,
                        RadixClusterStats* stats = nullptr) {
  CCDB_RETURN_IF_ERROR(options.Validate());
  size_t n = input.size();
  std::vector<int> per_pass = options.EffectiveBits();
  out->bits = options.bits;
  out->tuples.resize(n);
  if (per_pass.size() > 1) scratch->resize(n);
  out->bounds.assign({0, n});
  if (stats != nullptr) {
    stats->pass_ms.clear();
    stats->total_ms = 0;
  }
  if (options.bits == 0) {
    // H = 1: clustering is the identity; still one counted copy pass so that
    // time/miss comparisons against B > 0 are like-for-like.
    WallTimer t;
    for (size_t i = 0; i < n; ++i) {
      mem.Store(&out->tuples[i], mem.Load(&input[i]));
    }
    if (stats != nullptr) {
      stats->pass_ms = {t.ElapsedMillis()};
      stats->total_ms = stats->pass_ms[0];
    }
    return Status::Ok();
  }

  std::vector<uint64_t> next_bounds;
  const Bun* src = input.data();
  Bun* dst = out->tuples.data();
  bool dst_is_out = true;
  int consumed = 0;
  for (size_t p = 0; p < per_pass.size(); ++p) {
    int bp = per_pass[p];
    int shift = options.bits - consumed - bp;
    WallTimer t;
    internal::ClusterPass<Mem, HashFn>(src, dst, out->bounds, shift, bp, mem,
                                       &next_bounds);
    double ms = t.ElapsedMillis();
    if (stats != nullptr) {
      stats->pass_ms.push_back(ms);
      stats->total_ms += ms;
    }
    out->bounds.swap(next_bounds);
    consumed += bp;
    src = dst;
    if (p + 1 < per_pass.size()) {
      dst = dst_is_out ? scratch->data() : out->tuples.data();
      dst_is_out = !dst_is_out;
    }
  }
  if (!dst_is_out) out->tuples.swap(*scratch);
  return Status::Ok();
}

/// RadixClusterInto fresh buffers: the result holds a clustered copy.
template <class Mem, class HashFn = IdentityHash>
StatusOr<ClusteredRelation> RadixCluster(std::span<const Bun> input,
                                         const RadixClusterOptions& options,
                                         Mem& mem,
                                         RadixClusterStats* stats = nullptr) {
  ClusteredRelation out;
  BunVec scratch;
  CCDB_RETURN_IF_ERROR((RadixClusterInto<Mem, HashFn>(input, options, mem,
                                                      &out, &scratch, stats)));
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_RADIX_CLUSTER_H_
