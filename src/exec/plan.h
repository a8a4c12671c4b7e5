// Logical query plans and the fluent QueryBuilder — the MIL-flavoured
// composition layer of the paper's architecture (§3.1): a whole query is a
// tree of BAT-algebra operators (Scan, Select, Join, Project, GroupByAgg,
// OrderBy, Limit) that the Planner (model/planner.h) lowers to physical
// operators per node, consulting the memory-access cost model for every
// join instead of only at call sites.
//
//   auto plan = QueryBuilder(items)
//                   .Filter(Col("shipmode") == "MAIL" &&
//                           (Between(Col("qty"), 2u, 4u) ||
//                            !(Col("supp") == 7u)))
//                   .Join(orders, "order", "order_id", JoinType::kLeftOuter)
//                   .GroupByAgg({"supp", "prio"},
//                               {Agg::Sum("qty"), Agg::Min("qty"),
//                                Agg::Avg("qty")})
//                   .Having(Col("sum") >= 100u)
//                   .OrderBy("sum", /*descending=*/true)
//                   .Limit(5)
//                   .Build();
//
// Build() validates the whole tree against the table schemas (unknown or
// ambiguous columns, type mismatches, duplicate aggregate names) and
// computes the output schema; execution is Execute(plan) in
// model/planner.h.
#ifndef CCDB_EXEC_PLAN_H_
#define CCDB_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/table.h"
#include "model/strategy.h"
#include "util/status.h"

namespace ccdb {

/// An aggregate function over one u32 value column (kCount takes none).
enum class AggFunc { kSum, kMin, kMax, kAvg, kCount };

const char* AggFuncName(AggFunc f);

/// One aggregate of a GroupByAgg node: the function, its input column, and
/// the output column name (defaults to the function name; use As() when a
/// node computes e.g. two sums). Output types: sum/count -> i64, min/max ->
/// u32, avg -> f64.
struct AggSpec {
  AggFunc func = AggFunc::kSum;
  std::string value_col;    // empty for kCount
  std::string output_name;  // result column name

  static AggSpec Sum(std::string col) {
    return {AggFunc::kSum, std::move(col), "sum"};
  }
  static AggSpec Min(std::string col) {
    return {AggFunc::kMin, std::move(col), "min"};
  }
  static AggSpec Max(std::string col) {
    return {AggFunc::kMax, std::move(col), "max"};
  }
  static AggSpec Avg(std::string col) {
    return {AggFunc::kAvg, std::move(col), "avg"};
  }
  static AggSpec Count() { return {AggFunc::kCount, "", "count"}; }

  /// Renames the output column: Agg::Sum("qty").As("total_qty").
  AggSpec As(std::string name) const {
    AggSpec s = *this;
    s.output_name = std::move(name);
    return s;
  }
};

/// Shorthand so call sites read like the algebra: Agg::Sum("qty").
using Agg = AggSpec;

/// Join flavour. Inner emits matching pairs; left-outer additionally emits
/// unmatched probe rows with null right-side values; semi/anti emit only
/// left columns, for probe rows with (semi) or without (anti) a match.
enum class JoinType { kInner, kLeftOuter, kSemi, kAnti };

const char* JoinTypeName(JoinType t);

enum class LogicalOp {
  kScan,
  kSelect,
  kJoin,
  kProject,
  kGroupByAgg,
  kHaving,
  kOrderBy,
  kLimit,
};

const char* LogicalOpName(LogicalOp op);

/// One node of the logical tree. Unary operators have one child; kJoin has
/// two (children[0] = outer/probe side, children[1] = inner/build side).
struct LogicalNode {
  LogicalOp op = LogicalOp::kScan;
  std::vector<std::unique_ptr<LogicalNode>> children;

  const Table* table = nullptr;     // kScan
  Expr filter;                      // kSelect / kHaving
  std::string left_key, right_key;  // kJoin
  JoinType join_type = JoinType::kInner;             // kJoin
  JoinStrategy join_strategy = JoinStrategy::kBest;  // kJoin hint
  std::vector<std::string> columns;                  // kProject
  std::vector<std::string> group_cols;               // kGroupByAgg
  std::vector<AggSpec> aggs;                         // kGroupByAgg
  std::string order_col;                             // kOrderBy
  bool descending = false;                           // kOrderBy
  size_t limit = 0, offset = 0;                      // kLimit
};

/// What the plan knows about one visible column between operators.
struct PlanColumn {
  std::string name;
  PhysType type = PhysType::kU32;  // logical value type (kU32/kI64/kF64/kStr)
  bool encoded = false;   // kStr stored as 1-2 byte codes + dictionary
  bool ambiguous = false; // same name on both sides of a join
  bool nullable = false;  // right side of a left-outer join; nulls surface
                          // as type defaults (0 / 0.0 / "") when gathered
};

/// Re-derives (and re-validates) the visible schema of a logical subtree —
/// what Build() computes for the root. The planner uses this to prove a
/// join-chain reorder keeps every join key resolvable and unambiguous
/// before committing to the new order.
StatusOr<std::vector<PlanColumn>> ComputeNodeSchema(const LogicalNode& n);

/// A validated logical plan: the node tree plus the output schema that
/// Build() derived for it.
class LogicalPlan {
 public:
  const LogicalNode& root() const { return *root_; }
  const std::vector<PlanColumn>& output_schema() const { return schema_; }

  /// The tables this plan scans, in tree order with duplicates kept (a
  /// self-join lists its table twice). Callers that need set semantics
  /// dedup themselves; callers that need per-scan facts (cardinality
  /// bands, shared-scan registration) want every occurrence.
  std::vector<const Table*> Tables() const;

  /// Indented tree rendering, one operator per line (EXPLAIN-style).
  std::string ToString() const;

 private:
  friend class QueryBuilder;
  LogicalPlan(std::unique_ptr<LogicalNode> root, std::vector<PlanColumn> schema)
      : root_(std::move(root)), schema_(std::move(schema)) {}

  std::unique_ptr<LogicalNode> root_;
  std::vector<PlanColumn> schema_;
};

/// Fluent builder over a base table. Methods append logical nodes without
/// validating; Build() validates the whole tree and reports the first error.
/// The builder is move-only (a Join(QueryBuilder) consumes the subplan).
class QueryBuilder {
 public:
  /// Starts a plan with Scan(table). The table must outlive execution.
  explicit QueryBuilder(const Table& table);

  QueryBuilder(QueryBuilder&&) = default;
  QueryBuilder& operator=(QueryBuilder&&) = default;

  /// Filters by a typed expression tree (exec/expr.h): arbitrary And/Or/Not
  /// over comparisons, Between and In-lists. Build() type-checks the
  /// expression against the input schema; execution lowers it to fused
  /// candidate-list passes (conjunctions narrow one surviving position
  /// list; disjunctions union sorted position lists) — no intermediate BAT.
  QueryBuilder& Filter(Expr expr);

  /// Equi-join against `right` (u32 keys): this.left_key == right.right_key.
  /// `strategy` is a hint; the default lets the Planner pick per-node via
  /// the cost model. `right` becomes the inner (build) relation.
  QueryBuilder& Join(const Table& right, std::string left_key,
                     std::string right_key,
                     JoinStrategy strategy = JoinStrategy::kBest);

  /// Joins against a subplan (e.g. a pre-filtered table).
  QueryBuilder& Join(QueryBuilder right, std::string left_key,
                     std::string right_key,
                     JoinStrategy strategy = JoinStrategy::kBest);

  /// Typed join variants: left-outer keeps unmatched probe rows (right
  /// columns become nullable), semi/anti keep only left columns.
  QueryBuilder& Join(const Table& right, std::string left_key,
                     std::string right_key, JoinType type,
                     JoinStrategy strategy = JoinStrategy::kBest);
  QueryBuilder& Join(QueryBuilder right, std::string left_key,
                     std::string right_key, JoinType type,
                     JoinStrategy strategy = JoinStrategy::kBest);

  QueryBuilder& Project(std::vector<std::string> columns);

  /// Group by one or more columns (integral or encoded string), computing
  /// the given aggregates over u32 value columns. Output columns: the group
  /// columns (decoded), then one column per AggSpec in order.
  QueryBuilder& GroupByAgg(std::vector<std::string> group_cols,
                           std::vector<AggSpec> aggs);

  /// Filters aggregate output (the HAVING shorthand): must directly follow
  /// GroupByAgg (or another Having). The expression is evaluated
  /// over the aggregate's owned output columns in place — typed against the
  /// aggregate schema (u32 literals compare against i64 sums/counts) and
  /// compacted with a single positional take, never re-gathering the owned
  /// columns per conjunct.
  QueryBuilder& Having(Expr expr);

  /// Stable sort by one column; f64 NaN keys sort after every number
  /// (first when descending).
  QueryBuilder& OrderBy(std::string column, bool descending = false);

  QueryBuilder& Limit(size_t n, size_t offset = 0);

  /// Validates the tree (column existence, ambiguity, types) and returns
  /// the plan. Consumes the builder; any later Build() or fluent call on it
  /// yields InvalidArgument instead of undefined behaviour.
  StatusOr<LogicalPlan> Build();

 private:
  std::unique_ptr<LogicalNode> root_;
};

}  // namespace ccdb

#endif  // CCDB_EXEC_PLAN_H_
