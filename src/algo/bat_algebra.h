// BAT algebra: Monet's operator style, where every operator consumes and
// produces BATs (§3.1). These are thin, well-typed wrappers over the
// kernels in src/algo that keep results in BAT form, so operator trees can
// be composed the way Monet's MIL programs compose them — including the
// tuple-reconstruction joins that void columns make free.
#ifndef CCDB_ALGO_BAT_ALGEBRA_H_
#define CCDB_ALGO_BAT_ALGEBRA_H_

#include "bat/bat.h"
#include "util/status.h"

namespace ccdb {

/// select(b, lo, hi): BUNs of `b` whose integral tail is in [lo, hi].
/// Result: [head-OID, tail-value] pairs of the qualifying BUNs, with the
/// head materialized (candidates are no longer dense).
StatusOr<Bat> BatSelect(const Bat& b, uint32_t lo, uint32_t hi);

/// reverse(b): swap head and tail (O(1) — column swap).
Bat BatReverse(const Bat& b);

/// mirror(b): [head, head] — both columns the head (Monet's `mirror`).
StatusOr<Bat> BatMirror(const Bat& b);

/// mark(b, base): [head, void(base..)] — number the BUNs densely (Monet's
/// `mark`, used to introduce fresh OIDs after a selection).
StatusOr<Bat> BatMark(const Bat& b, oid_t base);

/// join(l, r): match l.tail == r.head, emit [l.head, r.tail], in l's
/// order. r is joined as BUNs [position, head] through the join driver
/// (algo/join.h), then r.tail is fetched at the matched positions:
///   * void head [base, base + count) -> the positional kernel over that
///     domain (§3.1): one head array of `count` slots is built, then each
///     l tuple reads one slot;
///   * u32 head  -> the B = 0 hash join.
/// Requires integral tails <= 32 bits on l and r.
StatusOr<Bat> BatJoin(const Bat& l, const Bat& r);

/// semijoin(l, r): BUNs of `l` whose head appears as a head in `r`.
StatusOr<Bat> BatSemijoin(const Bat& l, const Bat& r);

/// unique(b): first BUN of each distinct tail value (integral tails).
StatusOr<Bat> BatUnique(const Bat& b);

/// count(b): number of BUNs (trivial, for algebra completeness).
inline uint64_t BatCount(const Bat& b) { return b.size(); }

/// sum(b): sum of the integral tail values.
StatusOr<uint64_t> BatSum(const Bat& b);

/// slice(b, first, count): BUNs at positions [first, first+count), clamped
/// to the BAT's size (Monet's `slice`, the LIMIT/OFFSET primitive).
StatusOr<Bat> BatSlice(const Bat& b, size_t first, size_t count);

/// sort(b): BUNs reordered ascending by integral tail (stable; radix sort).
StatusOr<Bat> BatSortByTail(const Bat& b);

/// histogram(b): [value, frequency] per distinct integral tail value,
/// ascending by value.
StatusOr<Bat> BatHistogram(const Bat& b);

/// append(a, b): concatenation; heads are materialized.
StatusOr<Bat> BatAppend(const Bat& a, const Bat& b);

}  // namespace ccdb

#endif  // CCDB_ALGO_BAT_ALGEBRA_H_
