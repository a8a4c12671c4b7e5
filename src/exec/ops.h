// Legacy free-function exec API, kept as thin compatibility wrappers over
// the composable query-plan layer (exec/plan.h + exec/operator.h +
// model/planner.h). New code should build a QueryBuilder plan; these
// entry points remain for callers that want one join or one projection
// without a plan.
#ifndef CCDB_EXEC_OPS_H_
#define CCDB_EXEC_OPS_H_

#include <span>
#include <vector>

#include "algo/join_common.h"
#include "exec/result.h"
#include "exec/table.h"
#include "model/strategy.h"

namespace ccdb {

/// Runs the join described by `plan` on raw BUN spans through the whole
/// algo/ kernel (SortMergeJoin, SimpleHashJoin, RadixJoin or
/// PartitionedHashJoin). `stats` (optional) receives phase timings.
StatusOr<std::vector<Bun>> ExecuteJoin(std::span<const Bun> l,
                                       std::span<const Bun> r,
                                       const JoinPlan& plan,
                                       JoinStats* stats = nullptr);

/// Equi-join `left.left_col == right.right_col` (both u32 columns).
/// Returns the [left OID, right OID] join index. Strategy defaults to the
/// model-driven best plan for the inner cardinality. Wrapper over a
/// Scan-Join operator pipeline.
StatusOr<std::vector<Bun>> JoinTables(
    const Table& left, const std::string& left_col, const Table& right,
    const std::string& right_col,
    JoinStrategy strategy = JoinStrategy::kBest,
    const MachineProfile& profile = MachineProfile::GenericX86(),
    JoinStats* stats = nullptr);

/// Extracts the [OID, u32-value] BUNs of a table column (the join input
/// representation of §3.4.1).
StatusOr<std::vector<Bun>> ColumnBuns(const Table& table,
                                      const std::string& col);

/// Materializes the projection of a join result: for each [left OID,
/// right OID] pair of `join_index`, fetches `left_cols` from `left` and
/// `right_cols` from `right` via positional lookup — the
/// tuple-reconstruction phase that §3.1 (footnote 2) describes as
/// "additional tuple-reconstruction joins", free on void-headed BATs.
/// Wrapper over Chunk candidate-list materialization.
StatusOr<std::vector<MaterializedColumn>> MaterializeJoin(
    const Table& left, const std::vector<std::string>& left_cols,
    const Table& right, const std::vector<std::string>& right_cols,
    std::span<const Bun> join_index);

}  // namespace ccdb

#endif  // CCDB_EXEC_OPS_H_
