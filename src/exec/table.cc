#include "exec/table.h"

#include <cstring>

namespace ccdb {

StatusOr<Table> Table::FromRowStore(const RowStore& rows, bool auto_encode) {
  Table t;
  t.schema_ = TableSchema(rows.fields());
  CCDB_RETURN_IF_ERROR(t.schema_.Validate());
  t.rows_ = rows.size();
  CCDB_ASSIGN_OR_RETURN(DecomposedTable dsm, DecomposedTable::Decompose(rows));
  for (size_t i = 0; i < dsm.num_columns(); ++i) {
    const Bat& bat = dsm.column(i);
    if (auto_encode && bat.tail().type() == PhysType::kStr) {
      auto enc = DictEncode(bat.tail());
      if (enc.ok()) {
        CCDB_ASSIGN_OR_RETURN(
            Bat code_bat,
            Bat::Make(Column::Void(0, t.rows_), std::move(enc->codes)));
        t.bats_.push_back(std::move(code_bat));
        t.dicts_.emplace_back(std::move(enc->dict));
        continue;
      }
      // kResourceExhausted (domain too large): fall through, store raw.
      if (enc.status().code() != StatusCode::kResourceExhausted) {
        return enc.status();
      }
    }
    t.bats_.push_back(bat);
    t.dicts_.emplace_back(std::nullopt);
  }
  return t;
}

size_t Table::column_value_bytes(size_t i) const {
  const Column& tail = bats_[i].tail();
  if (tail.type() == PhysType::kStr) {
    // Offset entry per tuple; arena amortized out of the scan stride.
    return sizeof(uint32_t);
  }
  return PhysTypeWidth(tail.type());
}

size_t Table::MemoryBytes() const {
  size_t total = 0;
  for (const auto& b : bats_) total += b.MemoryBytes();
  return total;
}

StatusOr<ColumnStats> Table::StatsLocked(size_t i) const {
  if (i >= num_columns()) {
    return Status::InvalidArgument("stats: column index out of range");
  }
  if (stats_->cols.size() != num_columns()) {
    stats_->cols.assign(num_columns(), std::nullopt);
  }
  if (!stats_->cols[i].has_value()) {
    CCDB_ASSIGN_OR_RETURN(ColumnStats s, ComputeColumnStats(*this, i));
    stats_->cols[i] = s;
  }
  return *stats_->cols[i];
}

// Everything — the schema lookup, the bounds check, the fill — happens
// under the cache mutex, which AppendRows holds across its whole
// rebuild-and-swap. A stats call therefore always reads a consistent
// (pre- or post-append) table, never a half-replaced one.
StatusOr<ColumnStats> Table::stats(size_t i) const {
  MutexLock lock(&stats_->mu);
  return StatsLocked(i);
}

StatusOr<ColumnStats> Table::stats(const std::string& col) const {
  MutexLock lock(&stats_->mu);
  CCDB_ASSIGN_OR_RETURN(size_t i, Col(col));
  return StatsLocked(i);
}

Status Table::AppendRows(const RowStore& extra) {
  // Hold the stats mutex for the whole read-rebuild-swap: concurrent lazy
  // stats fills (which scan the old BATs under the same mutex) serialize
  // against the rebuild instead of racing it, and the cache object itself
  // is kept — cleared in place, not replaced (see the field-wise swap
  // below, which deliberately leaves stats_ alone) — so a blocked stats()
  // call resumes against the invalidated cache, never a dangling one.
  MutexLock lock(&stats_->mu);
  if (extra.fields().size() != schema_.num_fields()) {
    return Status::InvalidArgument("AppendRows: field count mismatch");
  }
  for (size_t f = 0; f < extra.fields().size(); ++f) {
    if (extra.fields()[f].name != schema_.field(f).name ||
        extra.fields()[f].type != schema_.field(f).type) {
      return Status::InvalidArgument("AppendRows: schema mismatch on field '" +
                                     extra.fields()[f].name + "'");
    }
  }
  // Materialize old + new rows and re-decompose: string domains may need
  // re-encoding (a new value can overflow a u8 code column), so rebuilding
  // through the one ingest path keeps every encoding invariant.
  CCDB_ASSIGN_OR_RETURN(RowStore combined,
                        RowStore::Make(schema_.fields(),
                                       rows_ + extra.size()));
  for (size_t r = 0; r < rows_; ++r) {
    CCDB_ASSIGN_OR_RETURN(size_t row, combined.AppendRow());
    for (size_t f = 0; f < schema_.num_fields(); ++f) {
      const Column& tail = bats_[f].tail();
      switch (schema_.field(f).type) {
        case FieldType::kU8:
          combined.SetU8(row, f, static_cast<uint8_t>(tail.GetIntegral(r)));
          break;
        case FieldType::kU16: {
          uint32_t v = static_cast<uint32_t>(tail.GetIntegral(r));
          combined.SetBytes(row, f, &v, 2);
          break;
        }
        case FieldType::kU32:
          combined.SetU32(row, f, static_cast<uint32_t>(tail.GetIntegral(r)));
          break;
        case FieldType::kI64:
          combined.SetI64(row, f, static_cast<int64_t>(tail.GetIntegral(r)));
          break;
        case FieldType::kF64:
          combined.SetF64(row, f, tail.Span<double>()[r]);
          break;
        case FieldType::kChar1:
        case FieldType::kChar10:
        case FieldType::kChar27: {
          std::string_view s = is_encoded(f)
                                   ? dicts_[f]->Get(static_cast<uint32_t>(
                                         tail.GetIntegral(r)))
                                   : tail.GetStr(r);
          combined.SetBytes(row, f, s.data(), s.size());
          break;
        }
      }
    }
  }
  for (size_t r = 0; r < extra.size(); ++r) {
    CCDB_ASSIGN_OR_RETURN(size_t row, combined.AppendRow());
    std::memcpy(combined.RowPtr(row), extra.RowPtr(r),
                extra.record_width());
  }
  CCDB_ASSIGN_OR_RETURN(Table rebuilt, FromRowStore(combined));
  // Field-wise swap instead of *this = move(rebuilt): that would replace
  // stats_ and drop the mutex we are holding. Clearing `cols` in place is
  // the invalidation; the version bump is the external signal (plan cache).
  schema_ = std::move(rebuilt.schema_);
  rows_ = rebuilt.rows_;
  bats_ = std::move(rebuilt.bats_);
  dicts_ = std::move(rebuilt.dicts_);
  stats_->cols.assign(schema_.num_fields(), std::nullopt);
  stats_->data_version.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

StatusOr<std::vector<std::string>> Table::GatherStr(
    size_t i, std::span<const oid_t> oids) const {
  std::vector<std::string> out;
  out.reserve(oids.size());
  if (is_encoded(i)) {
    const Column& codes = bats_[i].tail();
    for (oid_t o : oids) {
      if (o >= rows_) return Status::OutOfRange("oid beyond table");
      out.emplace_back(
          dicts_[i]->Get(static_cast<uint32_t>(codes.GetIntegral(o))));
    }
    return out;
  }
  const Column& tail = bats_[i].tail();
  if (tail.type() != PhysType::kStr)
    return Status::InvalidArgument(schema_.field(i).name +
                                   " is not a string column");
  for (oid_t o : oids) {
    if (o >= rows_) return Status::OutOfRange("oid beyond table");
    out.emplace_back(tail.GetStr(o));
  }
  return out;
}

}  // namespace ccdb
