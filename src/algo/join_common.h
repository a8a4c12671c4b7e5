// Shared definitions for the join family: hash functors, result emission,
// per-phase statistics. All join algorithms consume spans of 8-byte BUNs
// [OID, value] and produce [OID, OID] join-indexes, matching the paper's
// experimental setup (§3.4.1): join hit-rate one, result = [OID,OID] BAT.
// The loops that read the probe in order also take a KeyColumn, a key
// column read in place whose heads are positions.
#ifndef CCDB_ALGO_JOIN_COMMON_H_
#define CCDB_ALGO_JOIN_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "bat/types.h"
#include "mem/access.h"
#include "util/logging.h"

namespace ccdb {

/// Identity "hash": the paper clusters on "the lower B bits of the integer
/// hash-value of a column"; for the uniformly distributed unique integers of
/// the experiments the identity is a perfect hash, and it keeps radix bits
/// interpretable. Default everywhere.
struct IdentityHash {
  static constexpr uint32_t Hash(uint32_t v) { return v; }
};

/// Finalizer-style mixing hash (murmur3 fmix32) for skewed or structured
/// domains; every algorithm is templated so the choice is compile-time.
struct MurmurHash {
  static constexpr uint32_t Hash(uint32_t v) {
    v ^= v >> 16;
    v *= 0x85ebca6bu;
    v ^= v >> 13;
    v *= 0xc2b2ae35u;
    v ^= v >> 16;
    return v;
  }
};

/// The loop every probe task of a join runs (algo/join.h).
enum class JoinKernel {
  kSortMerge,   ///< merge against the sorted build; nothing is clustered
  kHash,        ///< probe the build cluster's bucket-sorted hash table
  kNestedLoop,  ///< nested loop over the cluster pair: the radix-join
  kPositional,  ///< direct address: slot key - key_min of an array of build
                ///< heads (§3.1's positional lookup); unique build keys
};

/// The build keys' domain [key_min, key_min + key_range) a positional join
/// indexes. key_range is 64-bit so the whole uint32 domain (2^32 keys) has
/// a range; it is 0 only for an empty relation.
struct KeyDomain {
  uint32_t key_min = 0;
  uint64_t key_range = 0;
};

/// The smallest domain holding every tail of `r`.
inline KeyDomain KeyDomainOf(std::span<const Bun> r) {
  if (r.empty()) return {};
  uint32_t lo = r[0].tail, hi = r[0].tail;
  for (const Bun& b : r) {
    lo = std::min(lo, b.tail);
    hi = std::max(hi, b.tail);
  }
  return {.key_min = lo, .key_range = uint64_t{hi} - lo + 1};
}

/// The physical shape of an equi-join (§3.3): its kernel, and the radix
/// bits B and passes P both relations are clustered on. Sort-merge ignores
/// B and P. The hash join at B = 0 is the non-partitioned (simple) hash
/// join: one table over the build, probed as is. The positional join
/// clusters nothing either; it indexes its build by key over `domain`.
struct JoinShape {
  JoinKernel kernel = JoinKernel::kHash;
  int bits = 0;
  int passes = 1;
  KeyDomain domain = {};  // positional only

  /// Whether both relations are radix-clustered: every shape but
  /// sort-merge, positional and the B = 0 hash join.
  bool clusters() const {
    return kernel == JoinKernel::kNestedLoop ||
           (kernel == JoinKernel::kHash && bits != 0);
  }

  /// Whether the probe is reorganized (clustered or sorted) before it is
  /// joined. The positional and the B = 0 hash join read it in order.
  bool reorganizes() const {
    return clusters() || kernel == JoinKernel::kSortMerge;
  }
};

/// A probe relation whose keys are read where they live, as JoinOp reads a
/// probe chunk's key column: tuple i is [first + i, key i], where key i is
/// keys[i], or keys[rows[i]] through a candidate list when `kThroughRows`.
/// T is the column's width (u8, u16 or u32). The loops that read the probe
/// in order (ProbeSlots, ProbeHashTable) take it in place of a BUN span, so
/// a probe that is not reorganized is never copied.
template <class T, bool kThroughRows>
struct KeyColumn {
  const T* keys = nullptr;
  const oid_t* rows = nullptr;  // kThroughRows: the column row of tuple i
  size_t count = 0;
  oid_t first = 0;  // the head of tuple 0

  size_t size() const { return count; }

  /// Tuples [lo, lo + n), their heads unchanged (as std::span::subspan).
  KeyColumn subspan(size_t lo, size_t n) const {
    KeyColumn s = *this;
    if constexpr (kThroughRows) {
      s.rows += lo;
    } else {
      s.keys += lo;
    }
    s.count = n;
    s.first += static_cast<oid_t>(lo);
    return s;
  }
};

/// Tuple i of a probe relation held as BUNs.
template <class Mem>
CCDB_ALWAYS_INLINE Bun ProbeTuple(std::span<const Bun> probe, size_t i,
                                  Mem& mem) {
  return mem.Load(&probe[i]);
}

/// Tuple i of a KeyColumn: its position and its key.
template <class T, bool kThroughRows, class Mem>
CCDB_ALWAYS_INLINE Bun ProbeTuple(const KeyColumn<T, kThroughRows>& probe,
                                  size_t i, Mem& mem) {
  size_t row = i;
  if constexpr (kThroughRows) row = mem.Load(&probe.rows[i]);
  return {static_cast<oid_t>(probe.first + i),
          static_cast<uint32_t>(mem.Load(&probe.keys[row]))};
}

/// Timings of a two-phase (cluster + join) algorithm, milliseconds. A
/// clustered hash join's table builds count in join_ms, not cluster_right_ms.
/// cluster_left_ms is 0 for the kernels that read the probe in order (the
/// positional and the B = 0 hash join): they do not reorganize it.
struct JoinStats {
  double cluster_left_ms = 0;
  double cluster_right_ms = 0;
  double join_ms = 0;
  uint64_t result_count = 0;
  int bits = 0;
  int passes = 0;

  double total_ms() const { return cluster_left_ms + cluster_right_ms + join_ms; }
};

/// Appends `b` to `out` (a std::vector<Bun> or the arena-backed BunVec),
/// routing the write through the access policy so the simulator sees the
/// (sequential) result-store traffic. DirectMemory pays nothing beyond the
/// push_back.
template <class Mem, class Out>
CCDB_ALWAYS_INLINE void EmitResult(Out& out, Bun b, Mem& mem) {
  out.push_back(b);
  if constexpr (!std::is_same_v<std::decay_t<Mem>, DirectMemory>) {
    mem.Store(&out.back(), b);
  }
}

/// Appends `b` to `out` when `keep` is set — the hash probe's emit. An
/// output with `push_back_if` (JoinOp's match sink) stores `b`
/// unconditionally and advances by `keep`, so a probe of a short bucket
/// runs no data-dependent branch. Vectors append under `if (keep)` through
/// EmitResult, so the simulator still counts one result store per match.
template <class Mem, class Out>
CCDB_ALWAYS_INLINE void EmitResultIf(Out& out, Bun b, bool keep, Mem& mem) {
  if constexpr (requires { out.push_back_if(b, keep); }) {
    out.push_back_if(b, keep);
  } else if (keep) {
    EmitResult(out, b, mem);
  }
}

}  // namespace ccdb

#endif  // CCDB_ALGO_JOIN_COMMON_H_
