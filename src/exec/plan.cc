#include "exec/plan.h"

#include <algorithm>

#include "exec/operator.h"

namespace ccdb {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "sum";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kAvg: return "avg";
    case AggFunc::kCount: return "count";
  }
  return "?";
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "inner";
    case JoinType::kLeftOuter: return "left_outer";
    case JoinType::kSemi: return "semi";
    case JoinType::kAnti: return "anti";
  }
  return "?";
}

const char* LogicalOpName(LogicalOp op) {
  switch (op) {
    case LogicalOp::kScan: return "Scan";
    case LogicalOp::kSelect: return "Select";
    case LogicalOp::kJoin: return "Join";
    case LogicalOp::kProject: return "Project";
    case LogicalOp::kGroupByAgg: return "GroupByAgg";
    case LogicalOp::kHaving: return "Having";
    case LogicalOp::kOrderBy: return "OrderBy";
    case LogicalOp::kLimit: return "Limit";
  }
  return "?";
}

namespace {

using Schema = std::vector<PlanColumn>;

StatusOr<const PlanColumn*> FindColumn(const Schema& schema,
                                       const std::string& name,
                                       const char* op) {
  const PlanColumn* found = nullptr;
  for (const PlanColumn& c : schema) {
    if (c.name != name) continue;
    if (c.ambiguous) {
      return Status::InvalidArgument(std::string(op) + ": column '" + name +
                                     "' is ambiguous (appears on both sides "
                                     "of a join); Project it away first");
    }
    found = &c;
    break;
  }
  if (found == nullptr) {
    return Status::NotFound(std::string(op) + ": no column named '" + name +
                            "'");
  }
  return found;
}

/// A stored table column as a scan sees it: its type is the one a scan
/// chunk reports for it (Chunk::TypeOf).
PlanColumn ScanColumn(const Table& t, size_t i) {
  Chunk scan;
  scan.cols.resize(1);
  scan.cols[0].base = &t;
  scan.cols[0].base_col = i;
  PlanColumn c;
  c.name = t.schema().field(i).name;
  c.type = scan.TypeOf(0);
  c.encoded = t.is_encoded(i);
  return c;
}

/// Child `i` of `n`, or the error a consumed builder leaves behind (its
/// moved-from root becomes a null child of the next appended node).
StatusOr<const LogicalNode*> ChildOf(const LogicalNode& n, size_t i) {
  if (n.children.size() <= i || n.children[i] == nullptr) {
    return Status::InvalidArgument(
        "QueryBuilder already consumed by Build()");
  }
  return n.children[i].get();
}

/// Type-checks one expression leaf against the visible column it names.
/// u32 literals compare against integral columns — including the i64
/// sums/counts of an aggregate, which is what lets Having reuse the same
/// machinery; f64 literals require an f64 column; string literals require a
/// string column and support equality only.
Status ValidateLeaf(const Schema& in, const Expr& e, const char* op) {
  CCDB_ASSIGN_OR_RETURN(const PlanColumn* c, FindColumn(in, e.column, op));
  if (!e.leaf()) {
    return Status::Internal("ValidateLeaf on a non-leaf expression");
  }
  if (e.kind == Expr::Kind::kBetween && e.lo.type != e.hi.type) {
    return Status::InvalidArgument(std::string(op) +
                                   ": Between bounds of mixed types on '" +
                                   e.column + "'");
  }
  if (e.kind == Expr::Kind::kIn && e.in_u32.empty() && e.in_str.empty()) {
    return Status::InvalidArgument(std::string(op) + ": empty In-list on '" +
                                   e.column + "'");
  }
  Literal::Type lt = LeafLiteralType(e);
  if (!LiteralFitsColumn(lt, c->type)) {
    const char* what =
        lt == Literal::Type::kF64   ? "float comparison on non-f64"
        : lt == Literal::Type::kStr ? "string comparison on non-string"
                                    : "integer comparison on non-integral";
    return Status::InvalidArgument(std::string(op) + ": " + what +
                                   " column '" + c->name + "'");
  }
  if (lt == Literal::Type::kStr && e.kind == Expr::Kind::kCmp &&
      e.cmp != CmpOp::kEq && e.cmp != CmpOp::kNe) {
    return Status::InvalidArgument(
        std::string(op) + ": string columns support = and != only ('" +
        c->name + "')");
  }
  // Inverted ranges select nothing and are always a caller bug; reject them
  // here instead of silently returning the empty set. (NaN bounds are not
  // `lo > hi` and keep their never-match semantics.)
  if (e.kind == Expr::Kind::kBetween) {
    if (lt == Literal::Type::kU32 && e.lo.u32 > e.hi.u32) {
      return Status::InvalidArgument(
          std::string(op) + ": range with lo > hi on '" + e.column + "' [" +
          std::to_string(e.lo.u32) + ", " + std::to_string(e.hi.u32) + "]");
    }
    if (lt == Literal::Type::kI64 && e.lo.i64 > e.hi.i64) {
      return Status::InvalidArgument(
          std::string(op) + ": range with lo > hi on '" + e.column + "' [" +
          std::to_string(e.lo.i64) + ", " + std::to_string(e.hi.i64) + "]");
    }
    if (lt == Literal::Type::kF64 && e.lo.f64 > e.hi.f64) {
      return Status::InvalidArgument(
          std::string(op) + ": range with lo > hi on '" + e.column + "'");
    }
  }
  return Status::Ok();
}

Status ValidateExpr(const Schema& in, const Expr& e, const char* op) {
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      if (e.children.empty()) {
        return Status::InvalidArgument(std::string(op) +
                                       ": empty predicate conjunction");
      }
      for (const Expr& c : e.children) {
        CCDB_RETURN_IF_ERROR(ValidateExpr(in, c, op));
      }
      return Status::Ok();
    case Expr::Kind::kNot:
      if (e.children.size() != 1) {
        return Status::InvalidArgument(std::string(op) +
                                       ": NOT takes exactly one operand");
      }
      return ValidateExpr(in, e.children[0], op);
    default:
      return ValidateLeaf(in, e, op);
  }
}

StatusOr<Schema> ValidateNode(const LogicalNode& n) {
  switch (n.op) {
    case LogicalOp::kScan: {
      if (n.table == nullptr) {
        return Status::InvalidArgument("Scan: null table");
      }
      Schema out;
      for (size_t i = 0; i < n.table->num_columns(); ++i) {
        out.push_back(ScanColumn(*n.table, i));
      }
      return out;
    }
    case LogicalOp::kSelect: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* child, ChildOf(n, 0));
      CCDB_ASSIGN_OR_RETURN(Schema in, ValidateNode(*child));
      CCDB_RETURN_IF_ERROR(ValidateExpr(in, n.filter, "Select"));
      return in;
    }
    case LogicalOp::kHaving: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* child, ChildOf(n, 0));
      if (child->op != LogicalOp::kGroupByAgg &&
          child->op != LogicalOp::kHaving) {
        return Status::InvalidArgument(
            std::string("Having: requires a GroupByAgg input, got ") +
            LogicalOpName(child->op));
      }
      CCDB_ASSIGN_OR_RETURN(Schema in, ValidateNode(*child));
      CCDB_RETURN_IF_ERROR(ValidateExpr(in, n.filter, "Having"));
      return in;
    }
    case LogicalOp::kJoin: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* lchild, ChildOf(n, 0));
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* rchild, ChildOf(n, 1));
      CCDB_ASSIGN_OR_RETURN(Schema l, ValidateNode(*lchild));
      CCDB_ASSIGN_OR_RETURN(Schema r, ValidateNode(*rchild));
      CCDB_ASSIGN_OR_RETURN(const PlanColumn* lk,
                            FindColumn(l, n.left_key, "Join"));
      CCDB_ASSIGN_OR_RETURN(const PlanColumn* rk,
                            FindColumn(r, n.right_key, "Join"));
      if (lk->type != PhysType::kU32 || rk->type != PhysType::kU32) {
        return Status::InvalidArgument(
            "Join: keys must be u32 columns (got '" + n.left_key + "', '" +
            n.right_key + "')");
      }
      // Semi/anti joins are filters on the probe side: only left columns
      // survive, so right-side names cannot collide or become nullable.
      if (n.join_type == JoinType::kSemi || n.join_type == JoinType::kAnti) {
        return l;
      }
      Schema out = l;
      for (PlanColumn c : r) {
        for (PlanColumn& existing : out) {
          if (existing.name == c.name) {
            existing.ambiguous = true;
            c.ambiguous = true;
          }
        }
        if (n.join_type == JoinType::kLeftOuter) {
          // Unmatched probe rows carry nulls on the right side; the
          // executor materializes (and decodes) those columns, surfacing
          // nulls as type defaults.
          c.nullable = true;
          c.encoded = false;
        }
        out.push_back(std::move(c));
      }
      return out;
    }
    case LogicalOp::kProject: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* child, ChildOf(n, 0));
      CCDB_ASSIGN_OR_RETURN(Schema in, ValidateNode(*child));
      if (n.columns.empty()) {
        return Status::InvalidArgument("Project: empty column list");
      }
      Schema out;
      for (const std::string& name : n.columns) {
        CCDB_ASSIGN_OR_RETURN(const PlanColumn* c,
                              FindColumn(in, name, "Project"));
        out.push_back(*c);
      }
      return out;
    }
    case LogicalOp::kGroupByAgg: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* child, ChildOf(n, 0));
      CCDB_ASSIGN_OR_RETURN(Schema in, ValidateNode(*child));
      if (n.group_cols.empty()) {
        return Status::InvalidArgument("GroupByAgg: empty group-column list");
      }
      if (n.aggs.empty()) {
        return Status::InvalidArgument("GroupByAgg: empty aggregate list");
      }
      Schema out;
      for (const std::string& name : n.group_cols) {
        CCDB_ASSIGN_OR_RETURN(const PlanColumn* g,
                              FindColumn(in, name, "GroupByAgg"));
        if (g->type != PhysType::kU32 &&
            !(g->type == PhysType::kStr && g->encoded)) {
          return Status::InvalidArgument(
              "GroupByAgg: group column '" + g->name +
              "' must be integral or an encoded string column");
        }
        for (const PlanColumn& seen : out) {
          if (seen.name == name) {
            return Status::InvalidArgument(
                "GroupByAgg: duplicate group column '" + name + "'");
          }
        }
        PlanColumn group = *g;
        group.encoded = false;  // aggregation output decodes group keys
        group.ambiguous = false;
        group.nullable = false;  // null surrogates group as concrete values
        out.push_back(std::move(group));
      }
      for (const AggSpec& agg : n.aggs) {
        if (agg.func != AggFunc::kCount) {
          CCDB_ASSIGN_OR_RETURN(const PlanColumn* v,
                                FindColumn(in, agg.value_col, "GroupByAgg"));
          if (v->type != PhysType::kU32) {
            return Status::InvalidArgument("GroupByAgg: value column '" +
                                           v->name + "' must be u32");
          }
        }
        if (agg.output_name.empty()) {
          return Status::InvalidArgument(
              "GroupByAgg: empty aggregate output name");
        }
        for (const PlanColumn& seen : out) {
          if (seen.name == agg.output_name) {
            return Status::InvalidArgument(
                "GroupByAgg: duplicate output column '" + agg.output_name +
                "' (rename with Agg::...().As())");
          }
        }
        PhysType t = PhysType::kI64;  // sum, count
        if (agg.func == AggFunc::kMin || agg.func == AggFunc::kMax) {
          t = PhysType::kU32;
        } else if (agg.func == AggFunc::kAvg) {
          t = PhysType::kF64;
        }
        out.push_back({agg.output_name, t, false, false, false});
      }
      return out;
    }
    case LogicalOp::kOrderBy: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* child, ChildOf(n, 0));
      CCDB_ASSIGN_OR_RETURN(Schema in, ValidateNode(*child));
      CCDB_ASSIGN_OR_RETURN(const PlanColumn* c,
                            FindColumn(in, n.order_col, "OrderBy"));
      (void)c;  // every logical type is orderable
      return in;
    }
    case LogicalOp::kLimit: {
      CCDB_ASSIGN_OR_RETURN(const LogicalNode* child, ChildOf(n, 0));
      return ValidateNode(*child);
    }
  }
  return Status::Internal("unreachable logical op");
}

/// One aggregate: `sum(qty)`, `min(qty) as lo`, `count()`.
std::string RenderAgg(const AggSpec& a) {
  std::string s;
  s.append(AggFuncName(a.func));
  s.append("(").append(a.value_col).append(")");
  if (a.output_name != AggFuncName(a.func)) {
    s.append(" as ").append(a.output_name);
  }
  return s;
}

void RenderNode(const LogicalNode& n, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(LogicalOpName(n.op));
  switch (n.op) {
    case LogicalOp::kScan:
      out->append("(").append(std::to_string(n.table->num_rows()))
          .append(" rows)");
      break;
    case LogicalOp::kSelect:
    case LogicalOp::kHaving:
      out->append("(").append(n.filter.ToString()).append(")");
      break;
    case LogicalOp::kJoin:
      out->append("(" + n.left_key + " = " + n.right_key + ", " +
                  JoinTypeName(n.join_type) + ", " +
                  JoinStrategyName(n.join_strategy) + ")");
      break;
    case LogicalOp::kProject: {
      out->append("(");
      for (size_t i = 0; i < n.columns.size(); ++i) {
        if (i) out->append(", ");
        out->append(n.columns[i]);
      }
      out->append(")");
      break;
    }
    case LogicalOp::kGroupByAgg: {
      out->append("(");
      for (size_t i = 0; i < n.group_cols.size(); ++i) {
        if (i) out->append(", ");
        out->append(n.group_cols[i]);
      }
      out->append("; ");
      for (size_t i = 0; i < n.aggs.size(); ++i) {
        if (i) out->append(", ");
        out->append(RenderAgg(n.aggs[i]));
      }
      out->append(")");
      break;
    }
    case LogicalOp::kOrderBy:
      out->append("(" + n.order_col + (n.descending ? " desc)" : " asc)"));
      break;
    case LogicalOp::kLimit:
      out->append("(").append(std::to_string(n.limit)).append(", offset ")
          .append(std::to_string(n.offset)).append(")");
      break;
  }
  out->push_back('\n');
  for (const auto& c : n.children) RenderNode(*c, depth + 1, out);
}

}  // namespace

StatusOr<std::vector<PlanColumn>> ComputeNodeSchema(const LogicalNode& n) {
  return ValidateNode(n);
}

namespace {

void CollectTables(const LogicalNode& n, std::vector<const Table*>* out) {
  if (n.table != nullptr) out->push_back(n.table);
  for (const auto& c : n.children) CollectTables(*c, out);
}

}  // namespace

std::vector<const Table*> LogicalPlan::Tables() const {
  std::vector<const Table*> out;
  CollectTables(*root_, &out);
  return out;
}

std::string LogicalPlan::ToString() const {
  std::string out;
  RenderNode(*root_, 0, &out);
  return out;
}

QueryBuilder::QueryBuilder(const Table& table)
    : root_(std::make_unique<LogicalNode>()) {
  root_->op = LogicalOp::kScan;
  root_->table = &table;
}

namespace {

std::unique_ptr<LogicalNode> Wrap(std::unique_ptr<LogicalNode> child,
                                  LogicalOp op) {
  auto n = std::make_unique<LogicalNode>();
  n->op = op;
  n->children.push_back(std::move(child));
  return n;
}

}  // namespace

// Every fluent method no-ops on a consumed builder (root_ == nullptr after
// Build() moved it out, or after the builder was joined into another plan):
// root_ stays null and the next Build() reports InvalidArgument instead of
// dereferencing it.

QueryBuilder& QueryBuilder::Filter(Expr expr) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kSelect);
  root_->filter = std::move(expr);
  return *this;
}

QueryBuilder& QueryBuilder::Having(Expr expr) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kHaving);
  root_->filter = std::move(expr);
  return *this;
}

QueryBuilder& QueryBuilder::Join(const Table& right, std::string left_key,
                                 std::string right_key, JoinStrategy strategy) {
  return Join(QueryBuilder(right), std::move(left_key), std::move(right_key),
              JoinType::kInner, strategy);
}

QueryBuilder& QueryBuilder::Join(QueryBuilder right, std::string left_key,
                                 std::string right_key, JoinStrategy strategy) {
  return Join(std::move(right), std::move(left_key), std::move(right_key),
              JoinType::kInner, strategy);
}

QueryBuilder& QueryBuilder::Join(const Table& right, std::string left_key,
                                 std::string right_key, JoinType type,
                                 JoinStrategy strategy) {
  return Join(QueryBuilder(right), std::move(left_key), std::move(right_key),
              type, strategy);
}

QueryBuilder& QueryBuilder::Join(QueryBuilder right, std::string left_key,
                                 std::string right_key, JoinType type,
                                 JoinStrategy strategy) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kJoin);
  root_->children.push_back(std::move(right.root_));
  root_->left_key = std::move(left_key);
  root_->right_key = std::move(right_key);
  root_->join_type = type;
  root_->join_strategy = strategy;
  return *this;
}

QueryBuilder& QueryBuilder::Project(std::vector<std::string> columns) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kProject);
  root_->columns = std::move(columns);
  return *this;
}

QueryBuilder& QueryBuilder::GroupByAgg(std::vector<std::string> group_cols,
                                       std::vector<AggSpec> aggs) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kGroupByAgg);
  root_->group_cols = std::move(group_cols);
  root_->aggs = std::move(aggs);
  return *this;
}

QueryBuilder& QueryBuilder::OrderBy(std::string column, bool descending) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kOrderBy);
  root_->order_col = std::move(column);
  root_->descending = descending;
  return *this;
}

QueryBuilder& QueryBuilder::Limit(size_t n, size_t offset) {
  if (root_ == nullptr) return *this;
  root_ = Wrap(std::move(root_), LogicalOp::kLimit);
  root_->limit = n;
  root_->offset = offset;
  return *this;
}

StatusOr<LogicalPlan> QueryBuilder::Build() {
  if (root_ == nullptr) {
    return Status::InvalidArgument(
        "QueryBuilder already consumed by Build()");
  }
  CCDB_ASSIGN_OR_RETURN(std::vector<PlanColumn> schema, ValidateNode(*root_));
  return LogicalPlan(std::move(root_), std::move(schema));
}

}  // namespace ccdb
