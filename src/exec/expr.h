// Typed, composable filter expressions — the predicate surface of the
// query API. An Expr is a tree of leaf comparisons (column vs typed
// literal: Eq/Ne/Lt/Le/Gt/Ge, Between, InU32/InStr) combined with
// And/Or/Not, built via fluent helpers:
//
//   Filter(Col("qty") >= 2u && (Col("shipmode") == "MAIL" ||
//                               !Between(Col("price"), 10.0, 20.0)))
//
// Expressions validate against the plan schema at Build() time and lower
// to fused candidate-list passes (exec/operator.cc): conjunctions narrow
// one surviving position list predicate by predicate, disjunctions union
// the sorted position lists of their branches — no intermediate BAT is
// ever materialized, which is the paper's §3.1 memory-access discipline.
//
// Semantics notes:
//  * NormalizeExpr() rewrites to negation normal form: Not distributes
//    over And/Or (De Morgan) and lands in the leaves, flipping comparison
//    operators (Eq<->Ne, Lt<->Ge, Le<->Gt) or toggling the leaf's
//    `negated` flag (Between, In).
//  * f64 comparisons follow IEEE: NaN fails every ordering comparison and
//    every [lo, hi] range — including "not in [lo, hi]", which evaluates
//    as v < lo || v > hi — while `!=` is true for NaN.
#ifndef CCDB_EXEC_EXPR_H_
#define CCDB_EXEC_EXPR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace ccdb {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Rendering name: "=", "!=", "<", "<=", ">", ">=".
const char* CmpOpName(CmpOp op);

/// The complement operator: Eq<->Ne, Lt<->Ge, Le<->Gt. NormalizeExpr uses
/// this to push a Not into a comparison leaf.
CmpOp ComplementCmpOp(CmpOp op);

/// A typed scalar literal. Which member is valid follows `type`.
struct Literal {
  enum class Type { kU32, kI64, kF64, kStr };
  Type type = Type::kU32;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string str;

  static Literal U32(uint32_t v) {
    Literal l;
    l.type = Type::kU32;
    l.u32 = v;
    return l;
  }
  /// Wide integer literal — the only way to compare an i64 aggregate output
  /// (sum/count) against a constant above 2^32: Having(Col("sum") >
  /// 5'000'000'000LL). Valid on u32 columns too (evaluated widened).
  static Literal I64(int64_t v) {
    Literal l;
    l.type = Type::kI64;
    l.i64 = v;
    return l;
  }
  static Literal F64(double v) {
    Literal l;
    l.type = Type::kF64;
    l.f64 = v;
    return l;
  }
  static Literal Str(std::string v) {
    Literal l;
    l.type = Type::kStr;
    l.str = std::move(v);
    return l;
  }

  std::string ToString() const;
};

/// One node of a filter expression tree. Value-semantic (copyable), so
/// expressions compose and reuse like the scalars they describe.
struct Expr {
  enum class Kind {
    kCmp,      // column <op> literal
    kBetween,  // column in [lo, hi] (inclusive; negated = outside)
    kIn,       // column in {v1, v2, ...} (negated = not in)
    kAnd,      // all children hold (>= 1 child; 0 children is invalid)
    kOr,       // any child holds
    kNot,      // exactly one child; removed by NormalizeExpr
  };

  Kind kind = Kind::kAnd;  // default-constructed Expr is invalid (empty And)

  // Leaf payload (kCmp / kBetween / kIn).
  std::string column;
  bool negated = false;  // kBetween / kIn: match the complement set
  CmpOp cmp = CmpOp::kEq;
  Literal value;                     // kCmp
  Literal lo, hi;                    // kBetween (same literal type)
  std::vector<uint32_t> in_u32;      // kIn: exactly one of in_u32 /
  std::vector<std::string> in_str;   //      in_str is populated

  std::vector<Expr> children;  // kAnd / kOr / kNot

  bool leaf() const {
    return kind == Kind::kCmp || kind == Kind::kBetween || kind == Kind::kIn;
  }

  /// Renders the expression, AND binding tighter than OR:
  /// `qty in [2, 4] AND (shipmode = "MAIL" OR supp != 7)`.
  std::string ToString() const;
};

// --- fluent construction -----------------------------------------------------

/// Column reference for the fluent helpers: Col("qty") >= 2u.
struct Col {
  std::string name;
  explicit Col(std::string n) : name(std::move(n)) {}
};

namespace expr_internal {

inline Expr MakeCmp(Col c, CmpOp op, Literal v) {
  Expr e;
  e.kind = Expr::Kind::kCmp;
  e.column = std::move(c.name);
  e.cmp = op;
  e.value = std::move(v);
  return e;
}

inline uint32_t NonNegative(int v) {
  CCDB_CHECK(v >= 0);  // negative literals are inexpressible on u32 columns
  return static_cast<uint32_t>(v);
}

/// Any integral type that is not one of the exact-match overloads below —
/// int64_t/long/uint64_t/size_t variables and the like, which would
/// otherwise be ambiguous among the uint32_t / int / long long / double
/// candidates.
template <typename T>
inline constexpr bool kOtherIntegral =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, uint32_t> && !std::is_same_v<T, int> &&
    !std::is_same_v<T, long long>;

/// Maps any integral to the literal domain: values inside [0, UINT32_MAX]
/// become u32 literals (eligible for the ranged select kernels — a
/// `Col("v") < int64_t{100}` must run exactly like `Col("v") < 100`),
/// anything wider an i64 literal (compared widened). Unsigned values past
/// INT64_MAX saturate to INT64_MAX — exact for every comparison unless the
/// column actually holds INT64_MAX (aggregates reject sums beyond it
/// anyway).
template <typename T>
inline Literal IntegralLiteral(T v) {
  if constexpr (std::is_unsigned_v<T>) {
    if (static_cast<uint64_t>(v) > static_cast<uint64_t>(INT64_MAX)) {
      return Literal::I64(INT64_MAX);
    }
  }
  int64_t w = static_cast<int64_t>(v);
  if (w >= 0 && w <= static_cast<int64_t>(UINT32_MAX)) {
    return Literal::U32(static_cast<uint32_t>(w));
  }
  return Literal::I64(w);
}

}  // namespace expr_internal

// Col <op> literal for u32, int (convenience; must be non-negative), i64
// (long long — constants above 2^32, e.g. for Having on an i64 sum), f64
// and string literals. String columns support = and != only (enforced at
// Build() time).
#define CCDB_EXPR_DEFINE_CMP(op, cmpop)                                       \
  inline Expr operator op(Col c, uint32_t v) {                                \
    return expr_internal::MakeCmp(std::move(c), cmpop, Literal::U32(v));      \
  }                                                                           \
  inline Expr operator op(Col c, int v) {                                     \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  Literal::U32(expr_internal::NonNegative(v))); \
  }                                                                           \
  inline Expr operator op(Col c, long long v) {                               \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  expr_internal::IntegralLiteral(v));         \
  }                                                                           \
  template <typename T,                                                       \
            typename = std::enable_if_t<expr_internal::kOtherIntegral<T>>>    \
  inline Expr operator op(Col c, T v) {                                       \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  expr_internal::IntegralLiteral(v));         \
  }                                                                           \
  inline Expr operator op(Col c, double v) {                                  \
    return expr_internal::MakeCmp(std::move(c), cmpop, Literal::F64(v));      \
  }                                                                           \
  inline Expr operator op(Col c, std::string v) {                             \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  Literal::Str(std::move(v)));                \
  }                                                                           \
  inline Expr operator op(Col c, const char* v) {                             \
    return expr_internal::MakeCmp(std::move(c), cmpop, Literal::Str(v));      \
  }

CCDB_EXPR_DEFINE_CMP(==, CmpOp::kEq)
CCDB_EXPR_DEFINE_CMP(!=, CmpOp::kNe)
CCDB_EXPR_DEFINE_CMP(<, CmpOp::kLt)
CCDB_EXPR_DEFINE_CMP(<=, CmpOp::kLe)
CCDB_EXPR_DEFINE_CMP(>, CmpOp::kGt)
CCDB_EXPR_DEFINE_CMP(>=, CmpOp::kGe)

#undef CCDB_EXPR_DEFINE_CMP

/// column in [lo, hi], inclusive on both ends. Build() rejects lo > hi.
Expr Between(Col c, uint32_t lo, uint32_t hi);
inline Expr Between(Col c, int lo, int hi) {
  return Between(std::move(c), expr_internal::NonNegative(lo),
                 expr_internal::NonNegative(hi));
}
Expr Between(Col c, long long lo, long long hi);
Expr Between(Col c, double lo, double hi);

/// Any other integral bound combination (int64_t variables, mixed
/// int/long long, size_t, ...): bounds within the u32 domain build the
/// kernel-eligible u32 range, anything wider the i64 range.
template <typename A, typename B,
          typename = std::enable_if_t<
              std::is_integral_v<A> && std::is_integral_v<B> &&
              !std::is_same_v<A, bool> && !std::is_same_v<B, bool>>>
inline Expr Between(Col c, A lo, B hi) {
  int64_t l = expr_internal::IntegralLiteral(lo).i64;
  int64_t h = expr_internal::IntegralLiteral(hi).i64;
  if (l >= 0 && h >= 0 && l <= int64_t{UINT32_MAX} &&
      h <= int64_t{UINT32_MAX}) {
    return Between(std::move(c), static_cast<uint32_t>(l),
                   static_cast<uint32_t>(h));
  }
  return Between(std::move(c), static_cast<long long>(l),
                 static_cast<long long>(h));
}

/// column in {values}. Build() rejects an empty list.
Expr InU32(Col c, std::vector<uint32_t> values);
Expr InStr(Col c, std::vector<std::string> values);

/// Boolean composition. && and || flatten nested conjunctions /
/// disjunctions; ! collapses double negation at construction.
Expr operator&&(Expr a, Expr b);
Expr operator||(Expr a, Expr b);
Expr operator!(Expr e);

// --- normalization and lowering helpers --------------------------------------

/// Negation normal form: every Not is pushed into the leaves (flipping
/// comparison operators / toggling `negated`), nested And/And and Or/Or
/// are flattened, and In-lists are sorted and deduplicated. Execution
/// (exec/operator.cc) requires normalized expressions; SelectOp normalizes
/// on construction, so callers only need this for inspection. Idempotent.
Expr NormalizeExpr(Expr e);

/// Estimated-selectivity rank used to order the conjuncts of an And before
/// lowering: cheaper, more selective shapes run first so later conjuncts
/// narrow a shorter candidate list. 0 = numeric equality, 1 = numeric
/// range (Between / ordering comparisons / In), 2 = string equality,
/// 3 = composite (a nested Or). Ties keep their written order.
int ConjunctRank(const Expr& e);

/// Rank name for EXPLAIN output: "eq", "range", "str-eq", "composite".
const char* ConjunctRankName(int rank);

/// Stable-sorts every And's children by ConjunctRank, recursively. The
/// match set is order-independent (conjuncts intersect), so this changes
/// evaluation cost, never results.
Expr OrderConjunctsBySelectivity(Expr e);

/// The form a filter executes in: NormalizeExpr, then
/// OrderConjunctsBySelectivity. nullopt for the empty conjunction (a
/// childless And, e.g. a default-constructed Expr), which is always true:
/// no filter. SelectOp and SharedScanOp both lower through this.
std::optional<Expr> LowerFilter(Expr e);

/// Literal domain a leaf compares on: the Cmp literal's or Between's lower
/// bound's type, kStr for a string In-list and kU32 for an integer one (or
/// for a non-leaf).
Literal::Type LeafLiteralType(const Expr& leaf);

/// The exact set of column values one leaf matches, in the domain of its
/// literal. Integer literals (u32 or i64) give sorted, disjoint,
/// non-adjacent closed i64 intervals. f64 literals give sorted, disjoint
/// intervals with open or closed ends (±inf for half-lines) plus a bit that
/// says whether NaN values match: IEEE, so NaN fails every ordering and
/// range (a negated Between is v < lo || v > hi) and passes only `!=`, and
/// a NaN literal matches nothing (`!= NaN`: everything). String literals
/// give a positive or complemented sorted, unique set.
struct LeafSet {
  enum class Domain { kInt, kF64, kStr };
  struct IntInterval {
    int64_t lo, hi;  // closed [lo, hi]
  };
  struct F64Interval {
    double lo, hi;
    bool lo_open, hi_open;
  };
  Domain domain = Domain::kInt;
  std::vector<IntInterval> ints;
  std::vector<F64Interval> f64s;
  bool nan = false;  // f64: do NaN column values match?
  bool str_negated = false;
  std::vector<std::string> strs;  // sorted, unique
};

/// The one definition of what a leaf matches: the filter walk
/// (exec/operator.cc) tests rows against this set and ExprSubsumes
/// compares these sets. nullopt for a non-leaf and for an ordering
/// comparison on a string literal (Build() admits neither).
std::optional<LeafSet> LeafValues(const Expr& leaf);

/// Does `a` imply `b` — is every row satisfying `a` guaranteed to satisfy
/// `b`? Conservative: a `true` answer is a proof, a `false` answer means
/// "could not prove it" (never "disproved"). Callers use this to share
/// work between filters: when ExprSubsumes(a, b), the rows matching `a`
/// can be computed by *narrowing* `b`'s position list with `a` instead of
/// re-scanning the column, with byte-identical results.
///
/// Both arguments must be normalized (NormalizeExpr output): any kNot node
/// returns false. Leaves are compared per column as the LeafValues sets
/// the filter walk evaluates, so a proof holds for exactly the rows the
/// walk keeps; a leaf with a NaN literal gives no proof. And/Or recurse
/// structurally, plus a per-column leaf-intersection refinement so e.g.
/// `x > 5 && x < 10` provably implies `Between(x, 6, 9)`. Columns are
/// matched by name; cross-type (numeric vs string) never subsumes.
bool ExprSubsumes(const Expr& a, const Expr& b);

}  // namespace ccdb

#endif  // CCDB_EXEC_EXPR_H_
