#include "bat/dsm.h"

#include <cstring>

namespace ccdb {

Column DecomposeField(const RowStore& rows, size_t f) {
  size_t n = rows.size();
  switch (rows.fields()[f].type) {
    case FieldType::kU8: {
      ColVec<uint8_t> v(n);
      for (size_t r = 0; r < n; ++r) v[r] = rows.GetU8(r, f);
      return Column::U8(std::move(v));
    }
    case FieldType::kU16: {
      ColVec<uint16_t> v(n);
      for (size_t r = 0; r < n; ++r) {
        uint16_t x;
        std::memcpy(&x, rows.GetBytes(r, f), sizeof(x));
        v[r] = x;
      }
      return Column::U16(std::move(v));
    }
    case FieldType::kU32: {
      ColVec<uint32_t> v(n);
      for (size_t r = 0; r < n; ++r) v[r] = rows.GetU32(r, f);
      return Column::U32(std::move(v));
    }
    case FieldType::kI64: {
      ColVec<int64_t> v(n);
      for (size_t r = 0; r < n; ++r) {
        int64_t x;
        std::memcpy(&x, rows.GetBytes(r, f), sizeof(x));
        v[r] = x;
      }
      return Column::I64(std::move(v));
    }
    case FieldType::kF64: {
      ColVec<double> v(n);
      for (size_t r = 0; r < n; ++r) v[r] = rows.GetF64(r, f);
      return Column::F64(std::move(v));
    }
    case FieldType::kChar1:
    case FieldType::kChar10:
    case FieldType::kChar27: {
      size_t width = FieldTypeWidth(rows.fields()[f].type);
      std::vector<std::string> v(n);
      for (size_t r = 0; r < n; ++r) {
        const char* p = reinterpret_cast<const char*>(rows.GetBytes(r, f));
        v[r].assign(p, strnlen(p, width));
      }
      return Column::Str(v);
    }
  }
  CCDB_CHECK(false && "unreachable");
  return Column();
}

StatusOr<DecomposedTable> DecomposedTable::Decompose(const RowStore& rows) {
  DecomposedTable t;
  size_t n = rows.size();
  for (size_t f = 0; f < rows.fields().size(); ++f) {
    Column tail = DecomposeField(rows, f);
    CCDB_ASSIGN_OR_RETURN(Bat bat, Bat::Make(Column::Void(0, n), std::move(tail)));
    t.names_.push_back(rows.fields()[f].name);
    t.fields_.push_back(rows.fields()[f]);
    t.bats_.push_back(std::move(bat));
  }
  return t;
}

StatusOr<size_t> DecomposedTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return Status::NotFound("no column named " + name);
}

Status DecomposedTable::ReconstructRow(oid_t oid, RowStore* out,
                                       size_t row) const {
  if (out->fields().size() != bats_.size())
    return Status::InvalidArgument("schema mismatch in ReconstructRow");
  if (oid >= num_rows())
    return Status::OutOfRange("oid beyond table size");
  for (size_t f = 0; f < bats_.size(); ++f) {
    const Column& tail = bats_[f].tail();
    // Positional lookup: void head means tuple `oid` is at position `oid`.
    switch (fields_[f].type) {
      case FieldType::kU8:
        out->SetU8(row, f, static_cast<uint8_t>(tail.GetIntegral(oid)));
        break;
      case FieldType::kU16: {
        uint16_t v = static_cast<uint16_t>(tail.GetIntegral(oid));
        out->SetBytes(row, f, &v, sizeof(v));
        break;
      }
      case FieldType::kU32:
        out->SetU32(row, f, static_cast<uint32_t>(tail.GetIntegral(oid)));
        break;
      case FieldType::kI64: {
        int64_t v = tail.Span<int64_t>()[oid];
        out->SetBytes(row, f, &v, sizeof(v));
        break;
      }
      case FieldType::kF64:
        out->SetF64(row, f, tail.Span<double>()[oid]);
        break;
      case FieldType::kChar1:
      case FieldType::kChar10:
      case FieldType::kChar27: {
        std::string_view s = tail.GetStr(oid);
        out->SetBytes(row, f, s.data(), s.size());
        break;
      }
    }
  }
  return Status::Ok();
}

StatusOr<RowStore> DecomposedTable::Reconstruct() const {
  CCDB_ASSIGN_OR_RETURN(RowStore out, RowStore::Make(fields_, num_rows()));
  for (size_t r = 0; r < num_rows(); ++r) {
    CCDB_ASSIGN_OR_RETURN(size_t row, out.AppendRow());
    CCDB_RETURN_IF_ERROR(ReconstructRow(static_cast<oid_t>(r), &out, row));
  }
  return out;
}

size_t DecomposedTable::MemoryBytes() const {
  size_t total = 0;
  for (const auto& b : bats_) total += b.MemoryBytes();
  return total;
}

}  // namespace ccdb
