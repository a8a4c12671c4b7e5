// Shared scans: one cooperative cursor per hot table, fanned out to every
// concurrently-executing plan that reads it — the serving-layer answer to
// the paper's memory-bottleneck thesis. With N in-flight analytic queries
// over the same BATs, independent ScanOps multiply exactly the memory
// traffic the paper says to avoid; a shared scan drives each table
// chunk-by-chunk once and hands every chunk to all attached plans'
// filters.
//
// This header is the exec-side seam. It defines:
//
//  * SharedScanProvider / SharedScanParticipant — the abstract protocol a
//    registry implements (the concrete cooperative-cursor registry lives in
//    serve/shared_scan.h; exec/ stays free of serving dependencies). A
//    plan's scan operator Attach()es per execution and pulls chunks from
//    the participant; detach is the participant's destruction, so cancel /
//    deadline / operator teardown all detach the same way.
//
//  * SharedScanOp — the physical operator the planner lowers `kScan` (and
//    fused `kSelect(kScan)`) nodes to when ExecContext::shared_scans is
//    bound. Emits exactly what ScanOp (+ SelectOp) would: same chunk
//    layout, same candidate lists, byte-identical results. The filter, if
//    any, travels to the provider so subsuming filters of co-attached
//    plans can share candidate lists.
//
//  * MakeTableScanChunk / EvalFilterPositions / NarrowFilterPositions —
//    the chunk-building and filter-evaluation primitives a provider uses
//    to drive a scan itself (implemented in operator.cc: the chunk is
//    ScanOp's, and both filter calls enter the walk SelectOp runs).
#ifndef CCDB_EXEC_SHARED_SCAN_H_
#define CCDB_EXEC_SHARED_SCAN_H_

#include <memory>
#include <optional>

#include "exec/expr.h"
#include "exec/operator.h"

namespace ccdb {

/// One plan's attachment to a shared table cursor, owned by the consuming
/// operator. NextChunk() produces the same sequence of chunks the plan's
/// private ScanOp(+SelectOp) would — every table chunk in order, filtered
/// by the filter given at Attach() — regardless of how many other
/// participants share the cursor. Destruction detaches: a participant may
/// be dropped at any point (cancel, deadline, Limit satisfied) without
/// affecting other participants' results.
class SharedScanParticipant {
 public:
  virtual ~SharedScanParticipant() = default;

  /// Fills `out` with the next (possibly zero-row) chunk; false when the
  /// table is exhausted. Blocks only while another participant drives the
  /// chunk this one needs next, and honors this plan's own
  /// ScheduleContext (cancel / deadline surface as the usual statuses).
  virtual StatusOr<bool> NextChunk(Chunk* out) = 0;
};

/// A per-table cursor registry. Attach() registers interest in scanning
/// `table`; the provider coordinates all attached participants so the
/// table is read once per "pass" and each chunk is fanned out, evaluating
/// each distinct filter once per chunk (and subsumed filters by narrowing
/// a donor's candidate list instead of re-reading the column).
class SharedScanProvider {
 public:
  virtual ~SharedScanProvider() = default;

  /// Attaches a scan of `table` with an optional *normalized* filter
  /// (LowerFilter form, as SelectOp lowers; null = unfiltered). The provider copies the filter. `ctx`
  /// supplies the participant's scheduling state and parallel-eval budget
  /// and must outlive the participant; `chunk_rows` is the scan chunk
  /// size the plan was lowered with.
  virtual StatusOr<std::unique_ptr<SharedScanParticipant>> Attach(
      const Table* table, const Expr* normalized_filter, size_t chunk_rows,
      const ExecContext* ctx) = 0;
};

/// Leaf operator: a table scan (with an optional fused filter) that pulls
/// its chunks from a SharedScanProvider instead of reading the table
/// itself. Open() attaches, Close() (and destruction) detaches. Output is
/// byte-identical to ScanOp followed by SelectOp with the same expression.
class SharedScanOp : public Operator {
 public:
  /// `filter`: nullopt scans unfiltered. The expression is lowered here
  /// by LowerFilter (as in SelectOp), so the provider always sees
  /// canonical trees — subsumption checks rely on NNF.
  SharedScanOp(const Table* table, std::optional<Expr> filter,
               size_t chunk_rows, SharedScanProvider* provider,
               const ExecContext* ctx);

  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

  /// The normalized filter this scan applies (nullopt: none) — the
  /// planner's ExplainFilters() report reads this, like SelectOp::expr().
  const std::optional<Expr>& expr() const { return expr_; }

 private:
  const Table* table_;
  std::optional<Expr> expr_;
  size_t chunk_rows_;
  SharedScanProvider* provider_;
  const ExecContext* ctx_;
  std::unique_ptr<SharedScanParticipant> part_;
};

/// Builds the chunk ScanOp would emit for rows [start, start+rows) of
/// `table`: every table column lazy over one dense candidate list.
/// Providers drive scans with this so shared and private chunks are
/// structurally identical.
Chunk MakeTableScanChunk(const Table& table, oid_t start, size_t rows);

/// Evaluates a normalized filter over every row of a chunk, returning
/// ascending, duplicate-free chunk positions. This is SelectOp's own filter
/// walk, so sharing cannot change results: same morsel-parallel splitting
/// under `ctx`, same NaN and encoded-string semantics, same errors.
StatusOr<std::vector<uint32_t>> EvalFilterPositions(const Chunk& chunk,
                                                    const Expr& normalized,
                                                    const ExecContext* ctx);

/// Narrows an ascending position list by a normalized filter: the same
/// walk, reading only the listed positions, returns those that also
/// satisfy it, preserving order. When ExprSubsumes(a, b) holds,
/// NarrowFilterPositions(chunk, a, EvalFilterPositions(chunk, b)) equals
/// EvalFilterPositions(chunk, a) — the identity candidate-list sharing is
/// built on.
StatusOr<std::vector<uint32_t>> NarrowFilterPositions(
    const Chunk& chunk, const Expr& normalized,
    std::vector<uint32_t> positions, const ExecContext* ctx);

}  // namespace ccdb

#endif  // CCDB_EXEC_SHARED_SCAN_H_
