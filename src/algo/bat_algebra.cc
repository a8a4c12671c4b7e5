#include "algo/bat_algebra.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "algo/join.h"
#include "algo/radix_sort.h"

namespace ccdb {

namespace {

Status RequireIntegralTail(const Bat& b, const char* op) {
  switch (b.tail().type()) {
    case PhysType::kVoid:
    case PhysType::kU8:
    case PhysType::kU16:
    case PhysType::kU32:
      return Status::Ok();
    default:
      return Status::InvalidArgument(
          std::string(op) + " requires an integral (<=32-bit) tail, got " +
          PhysTypeName(b.tail().type()));
  }
}

}  // namespace

StatusOr<Bat> BatSelect(const Bat& b, uint32_t lo, uint32_t hi) {
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(b, "select"));
  std::vector<uint32_t> heads;
  std::vector<uint32_t> tails;
  for (size_t i = 0; i < b.size(); ++i) {
    uint32_t v = static_cast<uint32_t>(b.tail().GetIntegral(i));
    if (lo <= v && v <= hi) {
      heads.push_back(b.head().GetOid(i));
      tails.push_back(v);
    }
  }
  return Bat::Make(Column::U32(std::move(heads)), Column::U32(std::move(tails)));
}

Bat BatReverse(const Bat& b) { return b.Reverse(); }

StatusOr<Bat> BatMirror(const Bat& b) {
  if (b.head().is_void()) {
    return Bat::Make(b.head(), b.head());
  }
  Column h = b.head();
  return Bat::Make(h, h);
}

StatusOr<Bat> BatMark(const Bat& b, oid_t base) {
  return Bat::Make(b.head(), Column::Void(base, b.size()));
}

StatusOr<Bat> BatJoin(const Bat& l, const Bat& r) {
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(l, "join"));
  if (!r.head().is_void() && r.head().type() != PhysType::kU32) {
    return Status::InvalidArgument("join requires void or u32 head on r");
  }
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(r, "join"));
  CCDB_ASSIGN_OR_RETURN(std::vector<Bun> lb, l.ToBuns());
  std::vector<uint32_t> heads, tails;
  if (r.head().is_void()) {
    // Positional (§3.1): head key k is r's position k - base, so each l
    // tuple reads r.tail in place — no head array, no pass over r.
    const oid_t base = r.head().void_base();
    for (const Bun& b : lb) {
      if (b.tail < base || b.tail - base >= r.size()) continue;
      heads.push_back(b.head);
      tails.push_back(
          static_cast<uint32_t>(r.tail().GetIntegral(b.tail - base)));
    }
    return Bat::Make(Column::U32(std::move(heads)),
                     Column::U32(std::move(tails)));
  }
  // r as BUNs [position, head key], so a tail match finds its position.
  std::vector<Bun> rb(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    rb[i] = {static_cast<oid_t>(i), r.head().GetOid(i)};
  }
  DirectMemory mem;
  CCDB_ASSIGN_OR_RETURN(
      std::vector<Bun> matches,
      JoinRelations(std::span<const Bun>(lb), std::span<const Bun>(rb),
                    JoinShape{}, mem));
  // matches = [l.head, r-position].
  heads.resize(matches.size());
  tails.resize(matches.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    heads[i] = matches[i].head;
    tails[i] = static_cast<uint32_t>(r.tail().GetIntegral(matches[i].tail));
  }
  return Bat::Make(Column::U32(std::move(heads)), Column::U32(std::move(tails)));
}

StatusOr<Bat> BatSemijoin(const Bat& l, const Bat& r) {
  std::unordered_set<uint32_t> r_heads;
  r_heads.reserve(r.size() * 2);
  for (size_t i = 0; i < r.size(); ++i) r_heads.insert(r.head().GetOid(i));
  std::vector<uint32_t> heads;
  std::vector<uint32_t> tails;
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(l, "semijoin"));
  for (size_t i = 0; i < l.size(); ++i) {
    uint32_t h = l.head().GetOid(i);
    if (r_heads.count(h) != 0) {
      heads.push_back(h);
      tails.push_back(static_cast<uint32_t>(l.tail().GetIntegral(i)));
    }
  }
  return Bat::Make(Column::U32(std::move(heads)), Column::U32(std::move(tails)));
}

StatusOr<Bat> BatUnique(const Bat& b) {
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(b, "unique"));
  std::unordered_set<uint32_t> seen;
  std::vector<uint32_t> heads;
  std::vector<uint32_t> tails;
  for (size_t i = 0; i < b.size(); ++i) {
    uint32_t v = static_cast<uint32_t>(b.tail().GetIntegral(i));
    if (seen.insert(v).second) {
      heads.push_back(b.head().GetOid(i));
      tails.push_back(v);
    }
  }
  return Bat::Make(Column::U32(std::move(heads)), Column::U32(std::move(tails)));
}

StatusOr<uint64_t> BatSum(const Bat& b) {
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(b, "sum"));
  uint64_t sum = 0;
  for (size_t i = 0; i < b.size(); ++i) sum += b.tail().GetIntegral(i);
  return sum;
}

StatusOr<Bat> BatSlice(const Bat& b, size_t first, size_t count) {
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(b, "slice"));
  size_t lo = std::min(first, b.size());
  size_t hi = count > b.size() - lo ? b.size() : lo + count;
  std::vector<uint32_t> heads(hi - lo), tails(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    heads[i - lo] = b.head().GetOid(i);
    tails[i - lo] = static_cast<uint32_t>(b.tail().GetIntegral(i));
  }
  return Bat::Make(Column::U32(std::move(heads)), Column::U32(std::move(tails)));
}

StatusOr<Bat> BatSortByTail(const Bat& b) {
  CCDB_ASSIGN_OR_RETURN(std::vector<Bun> buns, b.ToBuns());
  DirectMemory mem;
  RadixSortByTail(std::span<Bun>(buns), mem);
  return Bat::FromBuns(buns);
}

StatusOr<Bat> BatHistogram(const Bat& b) {
  CCDB_ASSIGN_OR_RETURN(Bat sorted, BatSortByTail(b));
  std::vector<uint32_t> values;
  std::vector<uint32_t> freqs;
  size_t i = 0;
  while (i < sorted.size()) {
    uint32_t v = static_cast<uint32_t>(sorted.tail().GetIntegral(i));
    size_t j = i;
    while (j < sorted.size() &&
           static_cast<uint32_t>(sorted.tail().GetIntegral(j)) == v) {
      ++j;
    }
    values.push_back(v);
    freqs.push_back(static_cast<uint32_t>(j - i));
    i = j;
  }
  return Bat::Make(Column::U32(std::move(values)),
                   Column::U32(std::move(freqs)));
}

StatusOr<Bat> BatAppend(const Bat& a, const Bat& b) {
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(a, "append"));
  CCDB_RETURN_IF_ERROR(RequireIntegralTail(b, "append"));
  std::vector<uint32_t> heads;
  std::vector<uint32_t> tails;
  heads.reserve(a.size() + b.size());
  tails.reserve(a.size() + b.size());
  for (const Bat* src : {&a, &b}) {
    for (size_t i = 0; i < src->size(); ++i) {
      heads.push_back(src->head().GetOid(i));
      tails.push_back(static_cast<uint32_t>(src->tail().GetIntegral(i)));
    }
  }
  return Bat::Make(Column::U32(std::move(heads)), Column::U32(std::move(tails)));
}

}  // namespace ccdb
