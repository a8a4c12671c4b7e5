#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace ccdb {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

CmpOp ComplementCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kGe: return CmpOp::kLt;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
  }
  return op;
}

std::string Literal::ToString() const {
  switch (type) {
    case Type::kU32: return std::to_string(u32);
    case Type::kI64: return std::to_string(i64);
    case Type::kF64: return std::to_string(f64);
    case Type::kStr: return "\"" + str + "\"";
  }
  return "?";
}

namespace {

/// Parenthesize `child` when rendered under `parent`? AND binds tighter
/// than OR; NOT children always get parens for clarity.
bool NeedsParens(const Expr& parent, const Expr& child) {
  if (child.leaf()) return false;
  if (parent.kind == Expr::Kind::kNot) return true;
  if (child.kind == Expr::Kind::kNot) return false;  // renders as NOT (...)
  return parent.kind != child.kind;  // Or under And, And under Or
}

void Render(const Expr& e, std::string* out) {
  switch (e.kind) {
    case Expr::Kind::kCmp:
      out->append(e.column).append(" ").append(CmpOpName(e.cmp)).append(" ")
          .append(e.value.ToString());
      return;
    case Expr::Kind::kBetween:
      out->append(e.column).append(e.negated ? " not in [" : " in [")
          .append(e.lo.ToString()).append(", ").append(e.hi.ToString())
          .append("]");
      return;
    case Expr::Kind::kIn: {
      out->append(e.column).append(e.negated ? " not in {" : " in {");
      if (!e.in_u32.empty()) {
        for (size_t i = 0; i < e.in_u32.size(); ++i) {
          if (i) out->append(", ");
          out->append(std::to_string(e.in_u32[i]));
        }
      } else {
        for (size_t i = 0; i < e.in_str.size(); ++i) {
          if (i) out->append(", ");
          out->append("\"").append(e.in_str[i]).append("\"");
        }
      }
      out->append("}");
      return;
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      const char* sep = e.kind == Expr::Kind::kAnd ? " AND " : " OR ";
      if (e.children.empty()) {
        out->append(e.kind == Expr::Kind::kAnd ? "<empty AND>" : "<empty OR>");
        return;
      }
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i) out->append(sep);
        bool parens = NeedsParens(e, e.children[i]);
        if (parens) out->append("(");
        Render(e.children[i], out);
        if (parens) out->append(")");
      }
      return;
    }
    case Expr::Kind::kNot:
      out->append("NOT (");
      if (!e.children.empty()) Render(e.children[0], out);
      out->append(")");
      return;
  }
}

}  // namespace

std::string Expr::ToString() const {
  std::string out;
  Render(*this, &out);
  return out;
}

Expr Between(Col c, uint32_t lo, uint32_t hi) {
  Expr e;
  e.kind = Expr::Kind::kBetween;
  e.column = std::move(c.name);
  e.lo = Literal::U32(lo);
  e.hi = Literal::U32(hi);
  return e;
}

Expr Between(Col c, long long lo, long long hi) {
  // Bounds inside the u32 domain build the kernel-eligible u32 range —
  // Between(c, 0LL, 50LL) must execute exactly like Between(c, 0u, 50u).
  if (lo >= 0 && hi >= 0 && lo <= (long long)UINT32_MAX &&
      hi <= (long long)UINT32_MAX) {
    return Between(std::move(c), static_cast<uint32_t>(lo),
                   static_cast<uint32_t>(hi));
  }
  Expr e;
  e.kind = Expr::Kind::kBetween;
  e.column = std::move(c.name);
  e.lo = Literal::I64(static_cast<int64_t>(lo));
  e.hi = Literal::I64(static_cast<int64_t>(hi));
  return e;
}

Expr Between(Col c, double lo, double hi) {
  Expr e;
  e.kind = Expr::Kind::kBetween;
  e.column = std::move(c.name);
  e.lo = Literal::F64(lo);
  e.hi = Literal::F64(hi);
  return e;
}

Expr InU32(Col c, std::vector<uint32_t> values) {
  Expr e;
  e.kind = Expr::Kind::kIn;
  e.column = std::move(c.name);
  e.in_u32 = std::move(values);
  return e;
}

Expr InStr(Col c, std::vector<std::string> values) {
  Expr e;
  e.kind = Expr::Kind::kIn;
  e.column = std::move(c.name);
  e.in_str = std::move(values);
  return e;
}

namespace {

Expr Combine(Expr::Kind kind, Expr a, Expr b) {
  Expr e;
  e.kind = kind;
  // Flatten same-kind children so (a && b) && c reads a AND b AND c.
  if (a.kind == kind) {
    e.children = std::move(a.children);
  } else {
    e.children.push_back(std::move(a));
  }
  if (b.kind == kind) {
    for (Expr& c : b.children) e.children.push_back(std::move(c));
  } else {
    e.children.push_back(std::move(b));
  }
  return e;
}

}  // namespace

Expr operator&&(Expr a, Expr b) {
  return Combine(Expr::Kind::kAnd, std::move(a), std::move(b));
}

Expr operator||(Expr a, Expr b) {
  return Combine(Expr::Kind::kOr, std::move(a), std::move(b));
}

Expr operator!(Expr e) {
  if (e.kind == Expr::Kind::kNot && e.children.size() == 1) {
    return std::move(e.children[0]);  // double negation
  }
  Expr n;
  n.kind = Expr::Kind::kNot;
  n.children.push_back(std::move(e));
  return n;
}

namespace {

Expr Normalize(Expr e, bool negate) {
  switch (e.kind) {
    case Expr::Kind::kNot: {
      if (e.children.size() != 1) return e;  // invalid; Build() reports it
      return Normalize(std::move(e.children[0]), !negate);
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      Expr out;
      // De Morgan: a negated And becomes an Or of negated children.
      bool is_and = (e.kind == Expr::Kind::kAnd) != negate;
      out.kind = is_and ? Expr::Kind::kAnd : Expr::Kind::kOr;
      for (Expr& c : e.children) {
        Expr n = Normalize(std::move(c), negate);
        if (n.kind == out.kind) {
          for (Expr& gc : n.children) out.children.push_back(std::move(gc));
        } else {
          out.children.push_back(std::move(n));
        }
      }
      if (out.children.size() == 1) return std::move(out.children[0]);
      return out;
    }
    case Expr::Kind::kCmp:
      if (negate) e.cmp = ComplementCmpOp(e.cmp);
      return e;
    case Expr::Kind::kBetween:
      if (negate) e.negated = !e.negated;
      return e;
    case Expr::Kind::kIn:
      if (negate) e.negated = !e.negated;
      std::sort(e.in_u32.begin(), e.in_u32.end());
      e.in_u32.erase(std::unique(e.in_u32.begin(), e.in_u32.end()),
                     e.in_u32.end());
      std::sort(e.in_str.begin(), e.in_str.end());
      e.in_str.erase(std::unique(e.in_str.begin(), e.in_str.end()),
                     e.in_str.end());
      return e;
  }
  return e;
}

}  // namespace

Expr NormalizeExpr(Expr e) { return Normalize(std::move(e), false); }

int ConjunctRank(const Expr& e) {
  if (!e.leaf()) return 3;
  if (LeafLiteralType(e) == Literal::Type::kStr) return 2;
  return e.kind == Expr::Kind::kCmp && e.cmp == CmpOp::kEq ? 0 : 1;
}

const char* ConjunctRankName(int rank) {
  switch (rank) {
    case 0: return "eq";
    case 1: return "range";
    case 2: return "str-eq";
    default: return "composite";
  }
}

Expr OrderConjunctsBySelectivity(Expr e) {
  for (Expr& c : e.children) c = OrderConjunctsBySelectivity(std::move(c));
  if (e.kind == Expr::Kind::kAnd) {
    std::stable_sort(e.children.begin(), e.children.end(),
                     [](const Expr& a, const Expr& b) {
                       return ConjunctRank(a) < ConjunctRank(b);
                     });
  }
  return e;
}

std::optional<Expr> LowerFilter(Expr e) {
  Expr lowered = OrderConjunctsBySelectivity(NormalizeExpr(std::move(e)));
  if (lowered.kind == Expr::Kind::kAnd && lowered.children.empty()) {
    return std::nullopt;
  }
  return lowered;
}

Literal::Type LeafLiteralType(const Expr& leaf) {
  switch (leaf.kind) {
    case Expr::Kind::kCmp: return leaf.value.type;
    case Expr::Kind::kBetween: return leaf.lo.type;
    case Expr::Kind::kIn:
      return leaf.in_str.empty() ? Literal::Type::kU32 : Literal::Type::kStr;
    default: return Literal::Type::kU32;
  }
}

bool LiteralFitsColumn(Literal::Type lt, PhysType col) {
  switch (lt) {
    case Literal::Type::kU32:
    case Literal::Type::kI64:
      return col == PhysType::kU32 || col == PhysType::kI64;
    case Literal::Type::kF64: return col == PhysType::kF64;
    case Literal::Type::kStr: return col == PhysType::kStr;
  }
  return false;
}

// --- leaf value sets ---------------------------------------------------------
//
// A leaf constrains one column to a *value set*, in one of three domains
// matching what Build() admits (integer literals never apply to f64
// columns and vice versa, so integer tightening like `x > 5 ⊆ x >= 6` is
// exact). Every set is canonical — sorted, disjoint and merged — so
// containment of interval lists decides implication, and the filter walk
// can test a value against a set with ordered comparisons alone.

namespace {

using IntInterval = LeafSet::IntInterval;
using F64Interval = LeafSet::F64Interval;

constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();

void CanonicalizeInts(std::vector<IntInterval>* iv) {
  iv->erase(std::remove_if(iv->begin(), iv->end(),
                           [](const IntInterval& i) { return i.lo > i.hi; }),
            iv->end());
  std::sort(iv->begin(), iv->end(), [](const IntInterval& x,
                                       const IntInterval& y) {
    return x.lo < y.lo;
  });
  std::vector<IntInterval> out;
  for (const IntInterval& s : *iv) {
    if (!out.empty() &&
        (s.lo <= out.back().hi ||
         (out.back().hi < kIntMax && s.lo == out.back().hi + 1))) {
      out.back().hi = std::max(out.back().hi, s.hi);
    } else {
      out.push_back(s);
    }
  }
  *iv = std::move(out);
}

bool F64Empty(const F64Interval& i) {
  return i.lo > i.hi || (i.lo == i.hi && (i.lo_open || i.hi_open));
}

void CanonicalizeF64s(std::vector<F64Interval>* iv) {
  iv->erase(std::remove_if(iv->begin(), iv->end(), F64Empty), iv->end());
  std::sort(iv->begin(), iv->end(),
            [](const F64Interval& x, const F64Interval& y) {
              if (x.lo != y.lo) return x.lo < y.lo;
              return !x.lo_open && y.lo_open;  // closed start first
            });
  std::vector<F64Interval> out;
  for (const F64Interval& s : *iv) {
    if (!out.empty()) {
      F64Interval& b = out.back();
      // Overlapping, or touching with at least one closed end ([1,2)∪[2,3]
      // merges, (1,2)∪(2,3) does not — the point 2 is missing).
      if (s.lo < b.hi || (s.lo == b.hi && (!s.lo_open || !b.hi_open))) {
        if (s.hi > b.hi || (s.hi == b.hi && b.hi_open && !s.hi_open)) {
          b.hi = s.hi;
          b.hi_open = s.hi_open;
        }
        continue;
      }
    }
    out.push_back(s);
  }
  *iv = std::move(out);
}

int64_t IntValue(const Literal& l) {
  return l.type == Literal::Type::kU32 ? static_cast<int64_t>(l.u32) : l.i64;
}

void IntLeafSet(const Expr& e, std::vector<IntInterval>* out) {
  switch (e.kind) {
    case Expr::Kind::kCmp: {
      int64_t v = IntValue(e.value);
      switch (e.cmp) {
        case CmpOp::kEq:
          out->push_back({v, v});
          break;
        case CmpOp::kNe:
          if (v > kIntMin) out->push_back({kIntMin, v - 1});
          if (v < kIntMax) out->push_back({v + 1, kIntMax});
          break;
        case CmpOp::kLt:
          if (v > kIntMin) out->push_back({kIntMin, v - 1});
          break;
        case CmpOp::kLe:
          out->push_back({kIntMin, v});
          break;
        case CmpOp::kGt:
          if (v < kIntMax) out->push_back({v + 1, kIntMax});
          break;
        case CmpOp::kGe:
          out->push_back({v, kIntMax});
          break;
      }
      return;
    }
    case Expr::Kind::kBetween: {
      int64_t lo = IntValue(e.lo), hi = IntValue(e.hi);
      if (!e.negated) {
        out->push_back({lo, hi});
      } else {
        if (lo > kIntMin) out->push_back({kIntMin, lo - 1});
        if (hi < kIntMax) out->push_back({hi + 1, kIntMax});
      }
      return;
    }
    default: {  // kIn
      std::vector<uint32_t> vs(e.in_u32);
      std::sort(vs.begin(), vs.end());
      vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
      if (!e.negated) {
        for (uint32_t v : vs) {
          int64_t x = static_cast<int64_t>(v);
          out->push_back({x, x});
        }
      } else {
        int64_t lo = kIntMin;
        for (uint32_t v : vs) {
          int64_t x = static_cast<int64_t>(v);
          if (x > lo) out->push_back({lo, x - 1});
          lo = x + 1;  // v <= UINT32_MAX, no overflow
        }
        out->push_back({lo, kIntMax});
      }
      return;
    }
  }
}

/// f64 leaves are Cmp or Between (Build() rejects f64 In-lists, and an
/// In-list's literal type is never kF64).
void F64LeafSet(const Expr& e, std::vector<F64Interval>* out, bool* nan) {
  const double inf = std::numeric_limits<double>::infinity();
  if (e.kind == Expr::Kind::kBetween) {
    double lo = e.lo.f64, hi = e.hi.f64;
    if (!e.negated) {
      if (!std::isnan(lo) && !std::isnan(hi)) {
        out->push_back({lo, hi, false, false});
      }
    } else {
      // v < lo || v > hi: a NaN bound drops its half.
      if (!std::isnan(lo)) out->push_back({-inf, lo, false, true});
      if (!std::isnan(hi)) out->push_back({hi, inf, true, false});
    }
    return;
  }
  double v = e.value.f64;
  if (std::isnan(v)) {
    // Every comparison with NaN is false but !=, which is always true.
    if (e.cmp == CmpOp::kNe) {
      out->push_back({-inf, inf, false, false});
      *nan = true;
    }
    return;
  }
  switch (e.cmp) {
    case CmpOp::kEq:
      out->push_back({v, v, false, false});
      break;
    case CmpOp::kNe:
      out->push_back({-inf, v, false, true});
      out->push_back({v, inf, true, false});
      *nan = true;  // NaN != v is true
      break;
    case CmpOp::kLt:
      out->push_back({-inf, v, false, true});
      break;
    case CmpOp::kLe:
      out->push_back({-inf, v, false, false});
      break;
    case CmpOp::kGt:
      out->push_back({v, inf, true, false});
      break;
    case CmpOp::kGe:
      out->push_back({v, inf, false, false});
      break;
  }
}

}  // namespace

std::optional<LeafSet> LeafValues(const Expr& leaf) {
  if (!leaf.leaf()) return std::nullopt;
  LeafSet s;
  switch (LeafLiteralType(leaf)) {
    case Literal::Type::kU32:
    case Literal::Type::kI64:
      s.domain = LeafSet::Domain::kInt;
      IntLeafSet(leaf, &s.ints);
      CanonicalizeInts(&s.ints);
      return s;
    case Literal::Type::kF64:
      s.domain = LeafSet::Domain::kF64;
      F64LeafSet(leaf, &s.f64s, &s.nan);
      CanonicalizeF64s(&s.f64s);
      return s;
    case Literal::Type::kStr:
      s.domain = LeafSet::Domain::kStr;
      if (leaf.kind == Expr::Kind::kIn) {
        s.str_negated = leaf.negated;
        s.strs = leaf.in_str;
        std::sort(s.strs.begin(), s.strs.end());
        s.strs.erase(std::unique(s.strs.begin(), s.strs.end()), s.strs.end());
      } else if (leaf.kind == Expr::Kind::kCmp &&
                 (leaf.cmp == CmpOp::kEq || leaf.cmp == CmpOp::kNe)) {
        s.str_negated = leaf.cmp == CmpOp::kNe;
        s.strs.push_back(leaf.value.str);
      } else {
        return std::nullopt;  // strings admit = and != only
      }
      return s;
  }
  return std::nullopt;
}

// --- subsumption -------------------------------------------------------------

namespace {

/// The set a proof may use: a leaf's LeafValues, except that NaN literals
/// give no proof — ExprSubsumes refuses them rather than reason over IEEE
/// corner cases.
std::optional<LeafSet> ProofSet(const Expr& leaf) {
  if (LeafLiteralType(leaf) == Literal::Type::kF64 &&
      (std::isnan(leaf.value.f64) || std::isnan(leaf.lo.f64) ||
       std::isnan(leaf.hi.f64))) {
    return std::nullopt;
  }
  return LeafValues(leaf);
}

bool IntContains(const std::vector<IntInterval>& big,
                 const std::vector<IntInterval>& small) {
  size_t j = 0;
  for (const IntInterval& s : small) {
    while (j < big.size() && big[j].hi < s.hi) ++j;
    if (j == big.size() || big[j].lo > s.lo || big[j].hi < s.hi) return false;
  }
  return true;
}

/// Does big's lo bound admit everything small's does?
bool F64LoCovers(const F64Interval& b, const F64Interval& s) {
  return b.lo < s.lo || (b.lo == s.lo && (!b.lo_open || s.lo_open));
}

bool F64HiCovers(const F64Interval& b, const F64Interval& s) {
  return b.hi > s.hi || (b.hi == s.hi && (!b.hi_open || s.hi_open));
}

bool F64Contains(const std::vector<F64Interval>& big,
                 const std::vector<F64Interval>& small) {
  size_t j = 0;
  for (const F64Interval& s : small) {
    while (j < big.size() && !F64HiCovers(big[j], s)) ++j;
    if (j == big.size() || !F64LoCovers(big[j], s)) return false;
  }
  return true;
}

bool Contains(const LeafSet& big, const LeafSet& small) {
  if (big.domain != small.domain) return false;
  switch (small.domain) {
    case LeafSet::Domain::kInt:
      return IntContains(big.ints, small.ints);
    case LeafSet::Domain::kF64:
      if (small.nan && !big.nan) return false;
      return F64Contains(big.f64s, small.f64s);
    case LeafSet::Domain::kStr: {
      const std::vector<std::string>& a = small.strs;
      const std::vector<std::string>& b = big.strs;
      if (!small.str_negated && !big.str_negated) {
        return std::includes(b.begin(), b.end(), a.begin(), a.end());
      }
      if (!small.str_negated && big.str_negated) {
        // {a...} ⊆ Σ∖{b...} iff the explicit sets are disjoint.
        std::vector<std::string> both;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(both));
        return both.empty();
      }
      if (small.str_negated && big.str_negated) {
        // Σ∖A ⊆ Σ∖B iff B ⊆ A.
        return std::includes(a.begin(), a.end(), b.begin(), b.end());
      }
      return false;  // a complement never fits a finite set
    }
  }
  return false;
}

std::optional<LeafSet> IntersectSets(const LeafSet& a, const LeafSet& b) {
  if (a.domain != b.domain) return std::nullopt;
  LeafSet out;
  out.domain = a.domain;
  switch (a.domain) {
    case LeafSet::Domain::kInt: {
      size_t i = 0, j = 0;
      while (i < a.ints.size() && j < b.ints.size()) {
        int64_t lo = std::max(a.ints[i].lo, b.ints[j].lo);
        int64_t hi = std::min(a.ints[i].hi, b.ints[j].hi);
        if (lo <= hi) out.ints.push_back({lo, hi});
        if (a.ints[i].hi < b.ints[j].hi) {
          ++i;
        } else {
          ++j;
        }
      }
      return out;
    }
    case LeafSet::Domain::kF64: {
      out.nan = a.nan && b.nan;
      size_t i = 0, j = 0;
      while (i < a.f64s.size() && j < b.f64s.size()) {
        const F64Interval& x = a.f64s[i];
        const F64Interval& y = b.f64s[j];
        F64Interval r;
        if (x.lo > y.lo || (x.lo == y.lo && x.lo_open)) {
          r.lo = x.lo;
          r.lo_open = x.lo_open;
        } else {
          r.lo = y.lo;
          r.lo_open = y.lo_open;
        }
        if (x.hi < y.hi || (x.hi == y.hi && x.hi_open)) {
          r.hi = x.hi;
          r.hi_open = x.hi_open;
        } else {
          r.hi = y.hi;
          r.hi_open = y.hi_open;
        }
        if (!F64Empty(r)) out.f64s.push_back(r);
        if (x.hi < y.hi || (x.hi == y.hi && x.hi_open && !y.hi_open)) {
          ++i;
        } else {
          ++j;
        }
      }
      return out;
    }
    case LeafSet::Domain::kStr: {
      const std::vector<std::string>& sa = a.strs;
      const std::vector<std::string>& sb = b.strs;
      if (!a.str_negated && !b.str_negated) {
        std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                              std::back_inserter(out.strs));
      } else if (!a.str_negated && b.str_negated) {
        std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                            std::back_inserter(out.strs));
      } else if (a.str_negated && !b.str_negated) {
        std::set_difference(sb.begin(), sb.end(), sa.begin(), sa.end(),
                            std::back_inserter(out.strs));
      } else {
        out.str_negated = true;
        std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                       std::back_inserter(out.strs));
      }
      return out;
    }
  }
  return std::nullopt;
}

std::optional<LeafSet> UnionSets(const LeafSet& a, const LeafSet& b) {
  if (a.domain != b.domain) return std::nullopt;
  LeafSet out;
  out.domain = a.domain;
  switch (a.domain) {
    case LeafSet::Domain::kInt:
      out.ints = a.ints;
      out.ints.insert(out.ints.end(), b.ints.begin(), b.ints.end());
      CanonicalizeInts(&out.ints);
      return out;
    case LeafSet::Domain::kF64:
      out.nan = a.nan || b.nan;
      out.f64s = a.f64s;
      out.f64s.insert(out.f64s.end(), b.f64s.begin(), b.f64s.end());
      CanonicalizeF64s(&out.f64s);
      return out;
    case LeafSet::Domain::kStr: {
      const std::vector<std::string>& sa = a.strs;
      const std::vector<std::string>& sb = b.strs;
      if (!a.str_negated && !b.str_negated) {
        std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                       std::back_inserter(out.strs));
      } else if (a.str_negated && b.str_negated) {
        out.str_negated = true;
        std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                              std::back_inserter(out.strs));
      } else {
        // pos P ∪ neg N = Σ ∖ (N ∖ P).
        const std::vector<std::string>& pos = a.str_negated ? sb : sa;
        const std::vector<std::string>& neg = a.str_negated ? sa : sb;
        out.str_negated = true;
        std::set_difference(neg.begin(), neg.end(), pos.begin(), pos.end(),
                            std::back_inserter(out.strs));
      }
      return out;
    }
  }
  return std::nullopt;
}

bool SubsumesImpl(const Expr& a, const Expr& b) {
  if (a.kind == Expr::Kind::kNot || b.kind == Expr::Kind::kNot) return false;
  if (b.kind == Expr::Kind::kAnd) {
    // a ⇒ (b1 ∧ b2 ∧ ...) iff a implies every conjunct. Empty And is the
    // always-true filter; anything implies it.
    for (const Expr& c : b.children) {
      if (!SubsumesImpl(a, c)) return false;
    }
    return true;
  }
  if (a.kind == Expr::Kind::kOr) {
    // (a1 ∨ a2 ∨ ...) ⇒ b iff every disjunct implies b. An empty Or matches
    // nothing and implies everything.
    for (const Expr& c : a.children) {
      if (!SubsumesImpl(c, b)) return false;
    }
    return true;
  }
  if (a.kind == Expr::Kind::kAnd) {
    // Any single conjunct implying b is enough (the rest only narrow a).
    for (const Expr& c : a.children) {
      if (SubsumesImpl(c, b)) return true;
    }
    if (b.leaf()) {
      // Refinement: intersect the value sets of a's conjuncts on b's
      // column. That intersection is a superset of a's true projection
      // (other conjuncts only narrow), so containment in b still proves
      // the implication — this is what shows x > 5 && x < 10 ⇒ x in [6,9].
      std::optional<LeafSet> bs = ProofSet(b);
      if (!bs.has_value()) return false;
      std::optional<LeafSet> acc;
      for (const Expr& c : a.children) {
        if (!c.leaf() || c.column != b.column) continue;
        std::optional<LeafSet> cs = ProofSet(c);
        if (!cs.has_value() || cs->domain != bs->domain) continue;
        acc = acc.has_value() ? IntersectSets(*acc, *cs) : cs;
        if (!acc.has_value()) return false;
      }
      return acc.has_value() && Contains(*bs, *acc);
    }
    // b is an Or: a implying any disjunct is enough.
    for (const Expr& d : b.children) {
      if (SubsumesImpl(a, d)) return true;
    }
    return false;
  }
  if (b.kind == Expr::Kind::kOr) {
    // a is a leaf here. Any single disjunct covering a is enough...
    for (const Expr& d : b.children) {
      if (SubsumesImpl(a, d)) return true;
    }
    // ...otherwise union b's same-column disjuncts: that union is a subset
    // of b's true match set (a partial cover), so containing a is a proof —
    // this is what shows x = 3 ⇒ x < 2 || x > 2.
    std::optional<LeafSet> as = ProofSet(a);
    if (!as.has_value()) return false;
    std::optional<LeafSet> acc;
    for (const Expr& d : b.children) {
      if (!d.leaf() || d.column != a.column) continue;
      std::optional<LeafSet> ds = ProofSet(d);
      if (!ds.has_value() || ds->domain != as->domain) continue;
      acc = acc.has_value() ? UnionSets(*acc, *ds) : ds;
      if (!acc.has_value()) return false;
    }
    return acc.has_value() && Contains(*acc, *as);
  }
  // Leaf vs leaf: same column, value-set containment.
  if (a.column != b.column) return false;
  std::optional<LeafSet> as = ProofSet(a);
  std::optional<LeafSet> bs = ProofSet(b);
  if (!as.has_value() || !bs.has_value()) return false;
  return Contains(*bs, *as);
}

}  // namespace

bool ExprSubsumes(const Expr& a, const Expr& b) { return SubsumesImpl(a, b); }

}  // namespace ccdb
