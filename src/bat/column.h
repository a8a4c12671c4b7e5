// Column: typed physical storage for one side (head or tail) of a BAT.
// Supports the paper's two space optimizations (§3.1):
//  * void columns ("virtual OIDs"): a dense ascending OID sequence is not
//    materialized at all — values are computed positionally on the fly;
//  * byte encodings: low-cardinality columns stored as 1- or 2-byte codes
//    (see bat/encoding.h for the dictionary machinery).
#ifndef CCDB_BAT_COLUMN_H_
#define CCDB_BAT_COLUMN_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "bat/types.h"
#include "mem/arena.h"
#include "util/logging.h"
#include "util/status.h"

namespace ccdb {

/// Value-semantic typed column. Construction is via the static factories;
/// typed access via Span<T>() (checked), GetOid()/GetStr() convenience
/// accessors, or the visitor.
class Column {
 public:
  /// Dense ascending OID sequence [base, base+count) that occupies no memory.
  static Column Void(oid_t base, size_t count);

  // Canonical factories: adopt an arena-backed vector without copying. Large
  // columns land on huge-page-eligible mappings (see mem/arena.h); small
  // ones stay on the default heap path. The std::vector overloads copy into
  // the arena (compatibility for cold callers/tests); the initializer_list
  // overloads keep `Column::U32({1, 2, 3})` unambiguous.
  static Column U8(ColVec<uint8_t> v);
  static Column U16(ColVec<uint16_t> v);
  static Column U32(ColVec<uint32_t> v);
  static Column I32(ColVec<int32_t> v);
  static Column I64(ColVec<int64_t> v);
  static Column F64(ColVec<double> v);
  static Column U8(const std::vector<uint8_t>& v);
  static Column U16(const std::vector<uint16_t>& v);
  static Column U32(const std::vector<uint32_t>& v);
  static Column I32(const std::vector<int32_t>& v);
  static Column I64(const std::vector<int64_t>& v);
  static Column F64(const std::vector<double>& v);
  static Column U8(std::initializer_list<uint8_t> v);
  static Column U16(std::initializer_list<uint16_t> v);
  static Column U32(std::initializer_list<uint32_t> v);
  static Column I32(std::initializer_list<int32_t> v);
  static Column I64(std::initializer_list<int64_t> v);
  static Column F64(std::initializer_list<double> v);
  /// Builds a string column (offset array + byte arena) from `v`.
  /// (String storage keeps std::string for the byte arena; only the fixed
  /// width representations are arena-backed.)
  static Column Str(const std::vector<std::string>& v);

  Column() : rep_(VoidRep{0, 0}) {}

  /// The values of `front` followed by those of `back` — the column-wise
  /// append. The types must match, except that an empty `front` adopts
  /// `back` (of any type) without copying it. A void `back` must continue
  /// `front`'s OID range.
  static Column Concat(const Column& front, Column back);

  PhysType type() const;
  size_t size() const;

  /// Checked typed view. Dies (CCDB_CHECK) on a type mismatch — callers are
  /// expected to have validated types at plan time; use `type()` to branch.
  template <typename T>
  std::span<const T> Span() const {
    const ColVec<T>* v = std::get_if<ColVec<T>>(&rep_);
    CCDB_CHECK(v != nullptr);
    return {v->data(), v->size()};
  }
  template <typename T>
  std::span<T> MutableSpan() {
    ColVec<T>* v = std::get_if<ColVec<T>>(&rep_);
    CCDB_CHECK(v != nullptr);
    return {v->data(), v->size()};
  }

  bool is_void() const { return std::holds_alternative<VoidRep>(rep_); }
  /// Pre: is_void().
  oid_t void_base() const { return std::get<VoidRep>(rep_).base; }

  /// OID at position `i` for void or kU32 columns (the two OID carriers).
  oid_t GetOid(size_t i) const {
    if (const VoidRep* v = std::get_if<VoidRep>(&rep_)) {
      CCDB_DCHECK(i < v->count);
      return static_cast<oid_t>(v->base + i);
    }
    return Span<uint32_t>()[i];
  }

  /// String at position `i`. Pre: type() == kStr.
  std::string_view GetStr(size_t i) const {
    const StrRep* s = std::get_if<StrRep>(&rep_);
    CCDB_CHECK(s != nullptr);
    CCDB_DCHECK(i + 1 < s->offsets.size() + 1 && i < s->offsets.size() - 1);
    return std::string_view(s->arena).substr(
        s->offsets[i], s->offsets[i + 1] - s->offsets[i]);
  }

  /// Widens position `i` to uint64 for any integral representation
  /// (void, u8, u16, u32, i32 — i32 is reinterpreted as its bit pattern).
  /// Pre: integral type. Used by generic operators and tests.
  uint64_t GetIntegral(size_t i) const;

  /// Materializes a void column as explicit u32 OIDs; identity otherwise.
  Column Materialize() const;

  /// Bytes of heap memory this column occupies (0 for void — the point of
  /// virtual OIDs).
  size_t MemoryBytes() const;

 private:
  struct VoidRep {
    oid_t base;
    size_t count;
  };
  struct StrRep {
    std::vector<uint32_t> offsets;  // size N+1
    std::string arena;
  };

  using Rep = std::variant<VoidRep, ColVec<uint8_t>, ColVec<uint16_t>,
                           ColVec<uint32_t>, ColVec<int32_t>, ColVec<int64_t>,
                           ColVec<double>, StrRep>;

  explicit Column(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

}  // namespace ccdb

#endif  // CCDB_BAT_COLUMN_H_
