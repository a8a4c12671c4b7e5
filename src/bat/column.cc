#include "bat/column.h"

#include <numeric>

namespace ccdb {

const char* PhysTypeName(PhysType t) {
  switch (t) {
    case PhysType::kVoid: return "void";
    case PhysType::kU8: return "u8";
    case PhysType::kU16: return "u16";
    case PhysType::kU32: return "u32";
    case PhysType::kI32: return "i32";
    case PhysType::kI64: return "i64";
    case PhysType::kF64: return "f64";
    case PhysType::kStr: return "str";
  }
  return "?";
}

Column Column::Void(oid_t base, size_t count) {
  return Column(VoidRep{base, count});
}
Column Column::U8(ColVec<uint8_t> v) { return Column(Rep(std::move(v))); }
Column Column::U16(ColVec<uint16_t> v) { return Column(Rep(std::move(v))); }
Column Column::U32(ColVec<uint32_t> v) { return Column(Rep(std::move(v))); }
Column Column::I32(ColVec<int32_t> v) { return Column(Rep(std::move(v))); }
Column Column::I64(ColVec<int64_t> v) { return Column(Rep(std::move(v))); }
Column Column::F64(ColVec<double> v) { return Column(Rep(std::move(v))); }

namespace {
// Copy a plain vector (or an initializer list) into an arena-backed one.
template <typename T, typename Src>
ColVec<T> ToArena(const Src& v) {
  return ColVec<T>(v.begin(), v.end());
}
}  // namespace

Column Column::U8(const std::vector<uint8_t>& v) { return U8(ToArena<uint8_t>(v)); }
Column Column::U16(const std::vector<uint16_t>& v) { return U16(ToArena<uint16_t>(v)); }
Column Column::U32(const std::vector<uint32_t>& v) { return U32(ToArena<uint32_t>(v)); }
Column Column::I32(const std::vector<int32_t>& v) { return I32(ToArena<int32_t>(v)); }
Column Column::I64(const std::vector<int64_t>& v) { return I64(ToArena<int64_t>(v)); }
Column Column::F64(const std::vector<double>& v) { return F64(ToArena<double>(v)); }
Column Column::U8(std::initializer_list<uint8_t> v) { return U8(ToArena<uint8_t>(v)); }
Column Column::U16(std::initializer_list<uint16_t> v) { return U16(ToArena<uint16_t>(v)); }
Column Column::U32(std::initializer_list<uint32_t> v) { return U32(ToArena<uint32_t>(v)); }
Column Column::I32(std::initializer_list<int32_t> v) { return I32(ToArena<int32_t>(v)); }
Column Column::I64(std::initializer_list<int64_t> v) { return I64(ToArena<int64_t>(v)); }
Column Column::F64(std::initializer_list<double> v) { return F64(ToArena<double>(v)); }

Column Column::Str(const std::vector<std::string>& v) {
  StrRep rep;
  rep.offsets.reserve(v.size() + 1);
  size_t total = 0;
  for (const auto& s : v) total += s.size();
  rep.arena.reserve(total);
  rep.offsets.push_back(0);
  for (const auto& s : v) {
    rep.arena += s;
    rep.offsets.push_back(static_cast<uint32_t>(rep.arena.size()));
  }
  return Column(Rep(std::move(rep)));
}

Column Column::Concat(const Column& front, Column back) {
  if (front.size() == 0) return back;
  CCDB_CHECK(front.type() == back.type());
  return std::visit(
      [&back](const auto& f) -> Column {
        using T = std::decay_t<decltype(f)>;
        const T& b = std::get<T>(back.rep_);
        if constexpr (std::is_same_v<T, VoidRep>) {
          CCDB_CHECK(b.base == f.base + f.count);
          return Void(f.base, f.count + b.count);
        } else if constexpr (std::is_same_v<T, StrRep>) {
          StrRep out{{}, f.arena + b.arena};
          out.offsets.reserve(f.offsets.size() + b.offsets.size() - 1);
          out.offsets.assign(f.offsets.begin(), f.offsets.end());
          const uint32_t base = f.offsets.back();
          for (size_t i = 1; i < b.offsets.size(); ++i) {
            out.offsets.push_back(base + b.offsets[i]);
          }
          return Column(Rep(std::move(out)));
        } else {
          T out;
          out.reserve(f.size() + b.size());
          out.insert(out.end(), f.begin(), f.end());
          out.insert(out.end(), b.begin(), b.end());
          return Column(Rep(std::move(out)));
        }
      },
      front.rep_);
}

PhysType Column::type() const {
  return std::visit(
      [](const auto& v) -> PhysType {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, VoidRep>) return PhysType::kVoid;
        else if constexpr (std::is_same_v<T, ColVec<uint8_t>>) return PhysType::kU8;
        else if constexpr (std::is_same_v<T, ColVec<uint16_t>>) return PhysType::kU16;
        else if constexpr (std::is_same_v<T, ColVec<uint32_t>>) return PhysType::kU32;
        else if constexpr (std::is_same_v<T, ColVec<int32_t>>) return PhysType::kI32;
        else if constexpr (std::is_same_v<T, ColVec<int64_t>>) return PhysType::kI64;
        else if constexpr (std::is_same_v<T, ColVec<double>>) return PhysType::kF64;
        else return PhysType::kStr;
      },
      rep_);
}

size_t Column::size() const {
  return std::visit(
      [](const auto& v) -> size_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, VoidRep>) {
          return v.count;
        } else if constexpr (std::is_same_v<T, StrRep>) {
          return v.offsets.empty() ? 0 : v.offsets.size() - 1;
        } else {
          return v.size();
        }
      },
      rep_);
}

uint64_t Column::GetIntegral(size_t i) const {
  switch (type()) {
    case PhysType::kVoid: return void_base() + i;
    case PhysType::kU8: return Span<uint8_t>()[i];
    case PhysType::kU16: return Span<uint16_t>()[i];
    case PhysType::kU32: return Span<uint32_t>()[i];
    case PhysType::kI32:
      return static_cast<uint32_t>(Span<int32_t>()[i]);
    case PhysType::kI64:
      return static_cast<uint64_t>(Span<int64_t>()[i]);
    default:
      CCDB_CHECK(false && "GetIntegral on non-integral column");
  }
  return 0;
}

Column Column::Materialize() const {
  if (const VoidRep* v = std::get_if<VoidRep>(&rep_)) {
    ColVec<uint32_t> oids(v->count);
    std::iota(oids.begin(), oids.end(), v->base);
    return U32(std::move(oids));
  }
  return *this;
}

size_t Column::MemoryBytes() const {
  return std::visit(
      [](const auto& v) -> size_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, VoidRep>) {
          return 0;
        } else if constexpr (std::is_same_v<T, StrRep>) {
          return v.offsets.size() * sizeof(uint32_t) + v.arena.size();
        } else {
          return v.size() * sizeof(typename T::value_type);
        }
      },
      rep_);
}

}  // namespace ccdb
