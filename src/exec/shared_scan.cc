#include "exec/shared_scan.h"

#include <utility>

namespace ccdb {

SharedScanOp::SharedScanOp(const Table* table, std::optional<Expr> filter,
                           size_t chunk_rows, SharedScanProvider* provider,
                           const ExecContext* ctx)
    : table_(table),
      chunk_rows_(chunk_rows == 0 ? SIZE_MAX : chunk_rows),
      provider_(provider),
      ctx_(ctx) {
  // Same lowering as SelectOp, so both run the same expression.
  if (filter.has_value()) expr_ = LowerFilter(std::move(*filter));
}

Status SharedScanOp::Open() {
  part_.reset();  // re-Open attaches afresh (cached plans re-execute)
  CCDB_ASSIGN_OR_RETURN(
      part_, provider_->Attach(table_,
                               expr_.has_value() ? &*expr_ : nullptr,
                               chunk_rows_, ctx_));
  return Status::Ok();
}

StatusOr<bool> SharedScanOp::Next(Chunk* out) {
  if (part_ == nullptr) return false;
  return part_->NextChunk(out);
}

void SharedScanOp::Close() { part_.reset(); }

Chunk MakeTableScanChunk(const Table& table, oid_t start, size_t rows) {
  Chunk out;
  out.rows = rows;
  out.cands = {Candidates::Dense(start, rows)};
  for (size_t i = 0; i < table.num_columns(); ++i) {
    ChunkColumn c;
    c.name = table.schema().field(i).name;
    c.base = &table;
    c.base_col = i;
    c.cand_slot = 0;
    out.cols.push_back(std::move(c));
  }
  return out;
}

}  // namespace ccdb
