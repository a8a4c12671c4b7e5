#include "exec/table.h"

namespace ccdb {

namespace {

bool IsCharField(FieldType t) {
  return t == FieldType::kChar1 || t == FieldType::kChar10 ||
         t == FieldType::kChar27;
}

}  // namespace

StatusOr<Table> Table::FromRowStore(const RowStore& rows, bool auto_encode) {
  // An empty table, its char columns encoded when `auto_encode` is set,
  // plus one append: the one ingest path.
  Table t;
  t.schema_ = TableSchema(rows.fields());
  CCDB_RETURN_IF_ERROR(t.schema_.Validate());
  t.bats_.resize(rows.fields().size());
  for (const FieldDef& f : rows.fields()) {
    if (auto_encode && IsCharField(f.type)) {
      t.dicts_.emplace_back(StrDictionary());
    } else {
      t.dicts_.emplace_back(std::nullopt);
    }
  }
  CCDB_RETURN_IF_ERROR(t.AppendColumns(rows));
  return t;
}

Status Table::AppendColumns(const RowStore& more) {
  std::vector<Bat> bats;
  std::vector<std::optional<StrDictionary>> dicts(num_columns());
  bats.reserve(num_columns());
  for (size_t f = 0; f < num_columns(); ++f) {
    Column batch = DecomposeField(more, f);
    const Column& old = bats_[f].tail();
    Column tail;
    if (is_encoded(f)) {
      auto enc = DictAppend(old, *dicts_[f], batch);
      if (enc.ok()) {
        tail = std::move(enc->codes);
        dicts[f] = std::move(enc->dict);
      } else if (enc.status().code() == StatusCode::kResourceExhausted) {
        // The domain outgrew 2-byte codes: the column is stored raw.
        CCDB_ASSIGN_OR_RETURN(Column values, DictDecode({old, *dicts_[f]}));
        tail = Column::Concat(values, std::move(batch));
      } else {
        return enc.status();
      }
    } else {
      tail = Column::Concat(old, std::move(batch));
    }
    bats.push_back(Bat::DenseTail(std::move(tail)));
  }
  rows_ += more.size();
  bats_ = std::move(bats);
  dicts_ = std::move(dicts);
  return Status::Ok();
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
// under the cache mutex, which AppendRows holds across its whole append
// and swap. A stats call therefore always reads a consistent (pre- or
// post-append) table, never a half-replaced one.
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
  // Hold the stats mutex for the whole append: concurrent lazy stats fills
  // (which scan the old BATs under the same mutex) serialize against it
  // instead of racing it, and the cache object itself is kept — cleared in
  // place, not replaced — so a blocked stats() call resumes against the
  // invalidated cache, never a dangling one.
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
  CCDB_RETURN_IF_ERROR(AppendColumns(extra));
  // Clearing `cols` in place is the invalidation; the version bump is the
  // external signal (plan cache).
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
