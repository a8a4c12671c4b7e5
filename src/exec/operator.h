// Physical operators: Open/Next/Close over BAT chunks (Volcano-shaped, but
// column-at-a-time inside each chunk, as §3.1 prescribes). The payload
// flowing between operators is a Chunk — a set of aligned columns that are
// usually *not* materialized: each lazy column is a pointer into a base
// table plus a shared candidate list (selection vector of OIDs), so a
// Select pipelines into a Join or an aggregate by narrowing the candidate
// list, and tuple reconstruction stays the free positional lookup the paper
// describes (footnote 2). Only pipeline breakers (group-by, order-by) and
// the final result materialize values.
#ifndef CCDB_EXEC_OPERATOR_H_
#define CCDB_EXEC_OPERATOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/aggregate.h"
#include "algo/join.h"
#include "exec/exec_context.h"
#include "exec/plan.h"
#include "exec/result.h"
#include "exec/table.h"
#include "model/strategy.h"

namespace ccdb {

/// A candidate list: the OIDs (into one base table) that survive upstream
/// operators. `oids == nullptr` means the dense virtual sequence
/// [base, base+count) — a void candidate column costing no memory.
struct Candidates {
  std::shared_ptr<const std::vector<oid_t>> oids;
  oid_t base = 0;
  size_t count = 0;

  static Candidates Dense(oid_t base, size_t count) {
    Candidates c;
    c.base = base;
    c.count = count;
    return c;
  }
  static Candidates FromOids(std::vector<oid_t> v) {
    Candidates c;
    c.count = v.size();
    c.oids = std::make_shared<const std::vector<oid_t>>(std::move(v));
    return c;
  }

  bool dense() const { return oids == nullptr; }
  oid_t Get(size_t i) const {
    return dense() ? static_cast<oid_t>(base + i) : (*oids)[i];
  }
};

/// One column visible in a chunk: either a lazy reference to a base-table
/// BAT, resolved through the chunk's candidate list number `cand_slot`, or
/// a Column materialized by an upstream pipeline breaker.
struct ChunkColumn {
  std::string name;
  const Table* base = nullptr;  // lazy: base table ...
  size_t base_col = 0;          //   ... column index ...
  size_t cand_slot = 0;         //   ... resolved through chunk.cands[slot]
  std::shared_ptr<const Column> owned;  // materialized (null when lazy)

  bool lazy() const { return owned == nullptr; }
};

/// The one place that decides which C++ type carries a chunk value type:
/// calls `fn(std::type_identity<T>{})` with T = uint32_t, int64_t, double or
/// std::string for kU32 / kI64 / kF64 / kStr and returns its result; any
/// other type returns `other`. Operators that move values write their body
/// once, over T, through this dispatch.
template <typename Fn>
auto VisitValueType(PhysType t, Status other, Fn&& fn)
    -> decltype(fn(std::type_identity<uint32_t>{})) {
  switch (t) {
    case PhysType::kU32: return fn(std::type_identity<uint32_t>{});
    case PhysType::kI64: return fn(std::type_identity<int64_t>{});
    case PhysType::kF64: return fn(std::type_identity<double>{});
    case PhysType::kStr: return fn(std::type_identity<std::string>{});
    default: return other;
  }
}

/// An owned column holding `v` (T one of VisitValueType's types).
template <typename T>
std::shared_ptr<const Column> OwnedColumn(const std::vector<T>& v) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    return std::make_shared<const Column>(Column::U32(v));
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return std::make_shared<const Column>(Column::I64(v));
  } else if constexpr (std::is_same_v<T, double>) {
    return std::make_shared<const Column>(Column::F64(v));
  } else {
    return std::make_shared<const Column>(Column::Str(v));
  }
}

/// A batch of rows flowing between operators. All columns are positionally
/// aligned; lazy columns from the same base-table side share one entry of
/// `cands` (so a join result carries exactly two candidate lists no matter
/// how many columns are later touched).
struct Chunk {
  size_t rows = 0;
  std::vector<ChunkColumn> cols;
  std::vector<Candidates> cands;

  StatusOr<size_t> Find(const std::string& name) const;

  /// Value type of column `c`, one of VisitValueType's four: u8, u16, u32,
  /// i32 and void storage read as kU32, an encoded string column as kStr;
  /// i64, f64 and raw strings are their own type.
  PhysType TypeOf(size_t c) const;

  /// Tuple reconstruction: column `c`'s values for every row, read through
  /// its candidate list (an owned column as it is) as T, one of
  /// VisitValueType's types. uint32_t reads a u8, u16 or u32 column at its
  /// width — an encoded string column's dictionary codes among them;
  /// int64_t reads an i64 column or widens those; std::string decodes an
  /// encoded column through its dictionary. InvalidArgument when the
  /// column's storage does not read as T, OutOfRange when a candidate lies
  /// past the column's end.
  template <typename T>
  StatusOr<std::vector<T>> Gather(size_t c) const;

  /// Rows at `positions` (indices into this chunk, duplicates allowed —
  /// a join's take). Candidate lists are remapped, owned columns compacted.
  /// Identity positions (every row, in order) return the chunk itself,
  /// sharing its candidate lists and owned columns.
  StatusOr<Chunk> Take(std::span<const uint32_t> positions) const;

  /// Appends column `c`'s values for all rows onto `out` — Gather at
  /// TypeOf(c)'s type, so strings are decoded and narrow integrals read as
  /// u32 — the final materialization step.
  Status AppendTo(size_t c, MaterializedColumn* out) const;
};

/// Concatenates chunks with identical layout (same names, same lazy/owned
/// shape) into one; used by pipeline breakers.
StatusOr<Chunk> ConcatChunks(std::vector<Chunk> chunks);

/// The physical operator interface. Lifecycle: Open() once, Next() until it
/// returns false, Close() once. Next() fills `out` with the next chunk.
/// Every operator emits at least one (possibly zero-row) chunk, so
/// downstream operators always learn their input layout.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  virtual StatusOr<bool> Next(Chunk* out) = 0;
  virtual void Close() = 0;
};

/// Per-join diagnostics a physical plan records at Open() time: the actual
/// inner cardinality and the JoinPlan the cost model chose for it.
struct JoinNodeInfo {
  std::string left_key, right_key;
  JoinType join_type = JoinType::kInner;
  uint64_t inner_cardinality = 0;
  JoinPlan plan;
  JoinStats stats;  // accumulated over probe chunks

  /// The planner's pre-execution estimates for this node (model/estimator.h)
  /// — what the join order and the sizing hints were decided from. The
  /// actuals above verify them after the fact.
  uint64_t estimated_inner_cardinality = 0;
  uint64_t estimated_probe_cardinality = 0;
  uint64_t estimated_result_rows = 0;
  /// Whether the estimates priced a positional join; `plan` above is the
  /// one that ran. ExplainJoins shows both.
  bool estimated_positional = false;
  /// True when join-chain reordering moved this join away from the position
  /// the query was written in.
  bool reordered = false;

  /// Times the inner (build) side was reorganized — clustered, sorted, or
  /// hash-table-built at B = 0. Always 1 after Open(): the inner is
  /// prepared once and reused across every probe chunk.
  int inner_cluster_runs = 0;
  /// Radix-partition probe tasks dispatched across all probe chunks — the
  /// independent parallel units of the partitioned join.
  uint64_t partition_tasks = 0;
  /// Worker budget the join ran with (ExecContext::parallelism).
  size_t parallelism = 1;
};

// --- concrete operators ------------------------------------------------------

/// Leaf: emits the base table as lazy columns over dense candidate lists,
/// `chunk_rows` rows at a time (SIZE_MAX = whole-BAT-at-a-time, the paper's
/// full-materialization model).
class ScanOp : public Operator {
 public:
  ScanOp(const Table* table, size_t chunk_rows);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override {}

 private:
  const Table* table_;
  size_t chunk_rows_;
  size_t pos_ = 0;
  bool emitted_ = false;
};

/// Filter: evaluates a typed expression tree (exec/expr.h) through the
/// candidate list (predicate remap for encoded columns) and narrows the
/// chunk — no values are materialized and no intermediate BAT exists at any
/// point. Conjunctions run as one fused candidate pass: the first conjunct
/// scans the chunk's candidate range, every subsequent conjunct narrows the
/// surviving position list without re-scanning the chunk. Disjunctions
/// evaluate every branch over the same input candidates and merge-union the
/// sorted position lists (UnionSortedPositions, beside the walk in
/// operator.cc), so a position matching several branches survives exactly
/// once. Every leaf reads its rows' values in place — a lazy column at the
/// OIDs its candidate list names, an owned column (aggregate output) at
/// chunk positions — and tests them against
/// the leaf's LeafValues set (exec/expr.h), the set ExprSubsumes reasons
/// over: i64 intervals (clamped to u32 ranges on u8/u16/u32 columns, so
/// `x != 7` is two ranges), f64 intervals plus a NaN bit, or a string set
/// (mapped to dictionary codes once per leaf on an encoded column). With a
/// parallel ExecContext a leaf over a lazy column splits into cache-sized
/// morsels evaluated on the pool; morsel results concatenate in morsel
/// order, so output is byte-identical at any parallelism.
///
/// The expression is lowered (LowerFilter: NNF, selectivity-ordered
/// conjuncts) on construction; SelectOp also serves Having nodes.
class SelectOp : public Operator {
 public:
  SelectOp(std::unique_ptr<Operator> child, Expr expr,
           const ExecContext* ctx = nullptr);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

  /// The normalized, selectivity-ordered expression this operator actually
  /// executes (nullopt: pass-through). The planner's ExplainFilters()
  /// report is derived from this, so the diagnostics cannot diverge from
  /// execution.
  const std::optional<Expr>& expr() const { return expr_; }

 private:
  std::unique_ptr<Operator> child_;
  std::optional<Expr> expr_;  // nullopt: pass-through (empty conjunction)
  const ExecContext* ctx_;
};

/// Equi-join. Open() drains the inner (right) child, asks the cost model
/// for a JoinPlan at the *actual* inner cardinality (recorded into `info`),
/// and prepares the inner side exactly once for that plan through the join
/// driver (algo/join.h) that the paper-figure benches run: radix-clustered,
/// sorted, or hash-table-built at B = 0 — never redone per probe chunk. A
/// clustered hash join's table slices are built by its probe tasks, so they
/// count in join_ms, not cluster_right_ms. Next() joins one outer chunk at
/// a time through the same driver. The positional and simple-hash plans
/// read the chunk's key column where it lives (a slice of the base column,
/// the column through a sparse candidate list, or an owned column), with
/// chunk positions as probe heads; the other plans cluster or sort
/// [position, key] BUNs filled straight from that column. Each driver task
/// (a radix partition pair; simple hash and positional: a probe morsel)
/// runs on the ExecContext's pool and writes its matches directly into its
/// own region (one slot per probe row) of the two output lists, a probe
/// position list and a build list, spilling past it only on duplicate
/// keys. The regions then close up in place, in task order, so join output
/// is byte-identical at any parallelism; in a PK-FK join every region is
/// full and nothing moves.
///
/// The build list holds base OIDs, as Monet's join index does, whenever the
/// inner resolves through one candidate list (a base table, filtered or
/// not): Open() makes each build BUN's head its base OID, the join loops
/// carry heads through unchanged, and the list becomes the output's
/// build-side candidate list as is — no match re-reads the build side.
/// Other inner shapes (a join result, an aggregate, a serialized exchange
/// output) carry chunk positions and are taken through them. The probe
/// side is always taken through its positions; a probe list that keeps
/// every row in order is the identity take, which shares the probe chunk.
///
/// All four JoinTypes probe the same prepared-once inner structures; they
/// differ only in how the per-chunk match list becomes an output chunk:
///  - kInner: matching pairs in radix order; both sides stay lazy — the
///    join only produces candidate lists.
///  - kSemi / kAnti: probe rows with / without a match, in probe order;
///    only left columns (and candidate lists) survive.
///  - kLeftOuter: matches sorted to probe order with unmatched probe rows
///    interleaved; right-side columns are materialized (decoded), with
///    type defaults (0 / 0.0 / "") standing in for nulls.
class JoinOp : public Operator {
 public:
  /// `est_probe_rows` is the planner's estimated probe cardinality (0 = no
  /// estimate), used to price the plan that runs.
  JoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
         std::string left_key, std::string right_key, JoinType join_type,
         JoinStrategy strategy, const MachineProfile& profile,
         JoinNodeInfo* info, const ExecContext* ctx = nullptr,
         uint64_t est_probe_rows = 0);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  /// The inner prepared for the join driver; its memory policy is the one
  /// every phase of the join runs under.
  using InnerBuild = JoinBuild<DirectMemory, IdentityHash>;

  /// Joins `probe` — the reorganized chunk's tuples, or its key column
  /// read in place (a KeyColumn) — with cluster bounds `bounds` against the
  /// prepared inner, one pool task per driver task, writing the matches
  /// into probe_.lpos/rpos in task order.
  template <class Probe>
  Status JoinPartitions(const Probe& probe, std::span<const uint64_t> bounds);

  /// The inner rows that build heads name, with the inner's layout. Base
  /// OIDs become the chunk's one candidate list, consuming `heads`; chunk
  /// positions are taken through, leaving `heads` as it was.
  StatusOr<Chunk> BuildRows(std::vector<uint32_t>&& heads) const;

  /// Right-side columns for a left-outer output chunk: the inner row build
  /// head `rpos[i]` names when `valid[i]`, the type's null surrogate
  /// otherwise. Always owned columns, so chunk layout is identical whether
  /// or not rows matched.
  StatusOr<std::vector<ChunkColumn>> TakeInnerWithNulls(
      std::vector<uint32_t>&& rpos, std::span<const uint8_t> valid) const;

  std::unique_ptr<Operator> left_, right_;
  std::string left_key_, right_key_;
  JoinType join_type_;
  JoinStrategy strategy_;
  MachineProfile profile_;
  JoinNodeInfo* info_;  // owned by the PhysicalPlan; may be null
  const ExecContext* ctx_;
  uint64_t est_probe_rows_ = 0;  // planner estimate, for the cost report
  JoinPlan plan_;
  Chunk inner_;
  bool build_oids_ = false;  // build heads are base OIDs, not positions
  InnerBuild build_;         // the inner side, prepared once at Open()
  // Probe-side buffers, reused by every Next() and freed by Close(). The
  // positional and simple-hash plans use neither `buns` nor `reorganized`:
  // they read the chunk's key column in place.
  struct ProbeBuffers {
    BunVec buns;              // [chunk position, key], to be reorganized
    JoinProbe reorganized;    // the clustered or sorted chunk
    std::vector<JoinTask> tasks;
    /// Per task: how many of its matches fit its region [lo, hi) of
    /// lpos/rpos, and where its matches start once the regions close up.
    std::vector<size_t> filled, at;
    std::vector<BunVec> spill;  // per task: matches past its region
    // The matches: probe positions and build heads, one region slot per
    // probe row while the tasks run, then closed up in task order.
    // Base-OID heads move into the output chunk, so rpos is then allocated
    // afresh every chunk.
    std::vector<uint32_t> lpos, rpos;
  } probe_;
};

/// Narrows and reorders the visible columns; unused candidate slots are
/// dropped.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<std::string> columns);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::string> columns_;
};

/// Pipeline breaker: grouped aggregation over one or more group-key
/// columns, accumulated chunk by chunk (§3.2: the group table usually fits
/// the caches). Each per-shard partial table (GroupAggTable) carries (sum,
/// count, min, max) per value column, so any subset of
/// SUM/MIN/MAX/AVG/COUNT is answered from one pass and partials merge
/// exactly. The table indexes a group directly by its key's offset in the
/// keys' bounding box while that box fits its slot array (small dense
/// domains such as dictionary codes), else by hash with open addressing;
/// the slot array's size, and so its memory, is the same in both forms.
/// Each chunk's key and value columns are gathered once, into buffers
/// reused chunk after chunk, and folded
/// column-wise (GroupAggTable::AddColumns: a position vector, then a
/// group-id vector, then one pass per aggregate column), not row by row.
/// With a parallel ExecContext each worker shard keeps its own table across
/// chunks, folds its row slice of every chunk, and the partials merge in
/// shard order when the input is exhausted; at parallelism 1 the single
/// table is fed in stream order, reproducing a serial reference byte for
/// byte. Emits one chunk of owned columns [group cols..., one column per
/// AggSpec]; encoded group keys are decoded. Sums and counts past INT64_MAX
/// surface as OutOfRange rather than negative values.
class GroupByAggOp : public Operator {
 public:
  /// `expected_groups` (0 = unknown) pre-sizes every worker shard's
  /// GroupAggTable from the planner's grouped-cardinality estimate (capped
  /// at 2^17 groups, 2 MiB of slots), making table growth rehash-free when
  /// the estimate covers the actual count.
  GroupByAggOp(std::unique_ptr<Operator> child,
               std::vector<std::string> group_cols, std::vector<AggSpec> aggs,
               const ExecContext* ctx = nullptr, size_t expected_groups = 0);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> aggs_;
  const ExecContext* ctx_;
  size_t expected_groups_;
  bool done_ = false;
};

/// Pipeline breaker: drains the child, stable-sorts row positions by the
/// key column, re-emits the permuted chunk (columns stay lazy!). Parallel
/// mode sorts contiguous shards on the pool and merges them left to right;
/// the merge prefers the left run on ties, which is exactly stable_sort's
/// tie-break, so output is byte-identical at any parallelism.
class OrderByOp : public Operator {
 public:
  OrderByOp(std::unique_ptr<Operator> child, std::string column,
            bool descending, const ExecContext* ctx = nullptr);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::string column_;
  bool descending_;
  const ExecContext* ctx_;
  bool done_ = false;
};

/// Streams through the child, skipping `offset` rows and truncating after
/// `limit` (Monet's slice). Once the limit is reached — including limit 0 —
/// it stops pulling from the child after the first (layout-bearing) chunk
/// instead of draining it.
class LimitOp : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, size_t limit, size_t offset);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  size_t limit_, offset_;
  size_t skipped_ = 0, emitted_ = 0;
  bool emitted_chunk_ = false;  // a layout-bearing chunk went downstream
};

}  // namespace ccdb

#endif  // CCDB_EXEC_OPERATOR_H_
