// Nested-loop join: O(|L|*|R|) reference implementation. Used as the oracle
// in the property tests (every other join algorithm must produce the same
// multiset of [OID,OID] pairs) and as the per-cluster kernel of radix-join.
#ifndef CCDB_ALGO_NESTED_LOOP_JOIN_H_
#define CCDB_ALGO_NESTED_LOOP_JOIN_H_

#include "algo/join_common.h"

namespace ccdb {

/// The nested-loop join loop: appends [l.head, r.head] for every equal-tail
/// pair to `out`, l-major. The one loop behind NestedLoopJoin and every
/// radix-join task of the join driver (algo/join.h).
template <class Mem, class Out>
void NestedLoopJoinInto(std::span<const Bun> l, std::span<const Bun> r,
                        Mem& mem, Out& out) {
  for (size_t i = 0; i < l.size(); ++i) {
    Bun lt = mem.Load(&l[i]);
    for (size_t j = 0; j < r.size(); ++j) {
      Bun rt = mem.Load(&r[j]);
      if (lt.tail == rt.tail) EmitResult(out, Bun{lt.head, rt.head}, mem);
    }
  }
}

template <class Mem>
std::vector<Bun> NestedLoopJoin(std::span<const Bun> l, std::span<const Bun> r,
                                Mem& mem) {
  std::vector<Bun> out;
  NestedLoopJoinInto(l, r, mem, out);
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_NESTED_LOOP_JOIN_H_
