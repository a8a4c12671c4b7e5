// Positional join on virtual-OID columns (§3.1): "When one of the join
// columns is VOID, Monet uses positional lookup instead of e.g.
// hash-lookup; effectively eliminating all join cost."
//
// The canonical use is tuple reconstruction: after an operator produced a
// BAT whose tail holds OIDs into a base table, joining it with any
// decomposition BAT [void OID, value] is pure arithmetic — the matching
// tuple of OID o *is* position o - base.
//
// PositionalJoin serves BatJoin on void-headed BATs. The planned path is the
// join driver's JoinKernel::kPositional (algo/join.h): JoinOp runs it when
// the cost model picks it for unique build keys over an eligible domain.
#ifndef CCDB_ALGO_POSITIONAL_JOIN_H_
#define CCDB_ALGO_POSITIONAL_JOIN_H_

#include <span>
#include <vector>

#include "algo/join_common.h"

namespace ccdb {

/// Joins `l` (tail = OID references) against a void-headed relation
/// [void(base..base+count), tail-position]: emits {l.head, position} for
/// every l whose tail lands in [base, base+count). With a dense foreign key
/// this is a hit-rate-1 join at one subtraction per tuple.
template <class Mem>
std::vector<Bun> PositionalJoin(std::span<const Bun> l, oid_t base,
                                size_t count, Mem& mem) {
  std::vector<Bun> out;
  out.reserve(l.size());
  for (size_t i = 0; i < l.size(); ++i) {
    Bun t = mem.Load(&l[i]);
    uint32_t offset = t.tail - base;  // wraps below base: filtered next line
    if (offset < count) {
      EmitResult(out, Bun{t.head, offset}, mem);
    }
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_POSITIONAL_JOIN_H_
