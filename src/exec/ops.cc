#include "exec/ops.h"

#include "algo/partitioned_hash_join.h"
#include "algo/radix_join.h"
#include "algo/simple_hash_join.h"
#include "algo/sort_merge_join.h"
#include "exec/operator.h"

namespace ccdb {

StatusOr<std::vector<Bun>> ExecuteJoin(std::span<const Bun> l,
                                       std::span<const Bun> r,
                                       const JoinPlan& plan,
                                       JoinStats* stats) {
  DirectMemory mem;
  if (plan.strategy == JoinStrategy::kSortMerge) {
    return SortMergeJoin(l, r, mem, stats);
  }
  if (RunsSimpleHash(plan)) return SimpleHashJoin(l, r, mem, stats);
  if (plan.use_radix_join) {
    return RadixJoin(l, r, plan.bits, plan.passes, mem, stats);
  }
  return PartitionedHashJoin(l, r, plan.bits, plan.passes, mem, stats);
}

StatusOr<std::vector<Bun>> ColumnBuns(const Table& table,
                                      const std::string& col) {
  CCDB_ASSIGN_OR_RETURN(size_t i, table.schema().FieldIndex(col));
  return table.column_bat(i).ToBuns();
}

StatusOr<std::vector<Bun>> JoinTables(const Table& left,
                                      const std::string& left_col,
                                      const Table& right,
                                      const std::string& right_col,
                                      JoinStrategy strategy,
                                      const MachineProfile& profile,
                                      JoinStats* stats) {
  // A two-leaf operator pipeline: Scan(left) |> Join(Scan(right)). The join
  // result's two candidate lists *are* the [left OID, right OID] index.
  CCDB_RETURN_IF_ERROR(left.schema().FieldIndex(left_col).status());
  CCDB_RETURN_IF_ERROR(right.schema().FieldIndex(right_col).status());
  JoinNodeInfo info;
  JoinOp join(std::make_unique<ScanOp>(&left, SIZE_MAX),
              std::make_unique<ScanOp>(&right, SIZE_MAX), left_col, right_col,
              JoinType::kInner, strategy, profile, &info);
  CCDB_RETURN_IF_ERROR(join.Open());
  std::vector<Bun> index;
  for (;;) {
    Chunk chunk;
    auto more = join.Next(&chunk);
    if (!more.ok()) {
      join.Close();
      return more.status();
    }
    if (!*more) break;
    // Slot 0 = left side, slot 1 = right side (scan leaves have one each).
    for (size_t i = 0; i < chunk.rows; ++i) {
      index.push_back({chunk.cands[0].Get(i), chunk.cands[1].Get(i)});
    }
  }
  join.Close();
  if (stats != nullptr) *stats = info.stats;
  return index;
}

StatusOr<std::vector<MaterializedColumn>> MaterializeJoin(
    const Table& left, const std::vector<std::string>& left_cols,
    const Table& right, const std::vector<std::string>& right_cols,
    std::span<const Bun> join_index) {
  // Build the join-result chunk directly: two candidate lists from the
  // index, every requested column lazy — materialization happens in
  // AppendTo, the same path a plan's output takes.
  std::vector<oid_t> left_oids(join_index.size());
  std::vector<oid_t> right_oids(join_index.size());
  for (size_t i = 0; i < join_index.size(); ++i) {
    left_oids[i] = join_index[i].head;
    right_oids[i] = join_index[i].tail;
  }
  Chunk chunk;
  chunk.rows = join_index.size();
  chunk.cands.push_back(Candidates::FromOids(std::move(left_oids)));
  chunk.cands.push_back(Candidates::FromOids(std::move(right_oids)));
  struct Side {
    const Table* table;
    const std::vector<std::string>* cols;
    size_t slot;
  };
  for (const Side& side : {Side{&left, &left_cols, 0},
                           Side{&right, &right_cols, 1}}) {
    for (const std::string& name : *side.cols) {
      CCDB_ASSIGN_OR_RETURN(size_t ci, side.table->schema().FieldIndex(name));
      ChunkColumn col;
      col.name = name;
      col.base = side.table;
      col.base_col = ci;
      col.cand_slot = side.slot;
      chunk.cols.push_back(std::move(col));
    }
  }
  std::vector<MaterializedColumn> out(chunk.cols.size());
  for (size_t i = 0; i < chunk.cols.size(); ++i) {
    out[i].name = chunk.cols[i].name;
    out[i].type = chunk.TypeOf(i);
    CCDB_RETURN_IF_ERROR(chunk.AppendTo(i, &out[i]));
  }
  return out;
}

}  // namespace ccdb
