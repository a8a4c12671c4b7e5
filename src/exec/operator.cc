#include "exec/operator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <optional>
#include <string_view>

#include "algo/join.h"
#include "exec/shared_scan.h"
#include "util/thread_pool.h"

namespace ccdb {
namespace {

/// Smallest worthwhile morsel: below this, task dispatch costs more than
/// the memory traffic it parallelizes.
constexpr size_t kMorselRows = 4096;

size_t CtxShards(const ExecContext* ctx, size_t n) {
  return ctx == nullptr ? 1 : ctx->ShardsFor(n, kMorselRows);
}

ThreadPool* CtxPool(const ExecContext* ctx) {
  return ctx == nullptr ? nullptr : ctx->pool;
}

size_t CtxParallelism(const ExecContext* ctx) {
  return ctx == nullptr ? 1 : ctx->parallelism;
}

/// ParallelFor wired to the context's ScheduleContext: every morsel polls
/// cancellation/deadline before running, and worker drives yield their pool
/// slot after a full quantum so concurrently executing plans interleave on
/// the shared pool. With no sched attached this degenerates to plain
/// ParallelFor (hooks stay null — zero overhead on the single-query path).
Status ExecParallelFor(const ExecContext* ctx, size_t shards,
                       const std::function<Status(size_t)>& body) {
  ScheduleContext* sched = ctx == nullptr ? nullptr : ctx->sched;
  if (sched == nullptr) {
    return ParallelFor(CtxPool(ctx), CtxParallelism(ctx), shards, body);
  }
  ParallelForHooks hooks;
  hooks.before_morsel = [sched] { return sched->Check(); };
  hooks.yield_after_morsel = [sched] { return sched->YieldAfterMorsel(); };
  return ParallelFor(CtxPool(ctx), CtxParallelism(ctx), shards, body, &hooks);
}

/// Morsel-boundary poll for serial stretches of an operator (chunk
/// pipelining, single-shard paths) that never enter ExecParallelFor.
Status SchedCheck(const ExecContext* ctx) {
  if (ctx == nullptr || ctx->sched == nullptr) return Status::Ok();
  return ctx->sched->Check();
}

}  // namespace

// --- Chunk -------------------------------------------------------------------

StatusOr<size_t> Chunk::Find(const std::string& name) const {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return i;
  }
  return Status::NotFound("no chunk column named " + name);
}

PhysType Chunk::TypeOf(size_t c) const {
  const ChunkColumn& col = cols[c];
  PhysType t;
  if (col.lazy()) {
    if (col.base->is_encoded(col.base_col)) return PhysType::kStr;
    t = col.base->column_bat(col.base_col).tail().type();
  } else {
    t = col.owned->type();
  }
  switch (t) {
    case PhysType::kVoid:
    case PhysType::kU8:
    case PhysType::kU16:
    case PhysType::kU32:
    case PhysType::kI32:
      return PhysType::kU32;
    default:
      return t;
  }
}

namespace {

std::span<const oid_t> OidSpan(const Candidates& c) {
  CCDB_DCHECK(!c.dense());
  return {c.oids->data(), c.oids->size()};
}

/// The one loop behind every candidate-list walk (Take, the gathers,
/// ConcatChunks): calls `fn(i, oid)` for i in [0, n) with the OID of list
/// row `row(i)`. The dense/sparse branch is taken once per walk instead of
/// once per row. Stops at the first `fn` that returns false and reports
/// whether the walk completed.
template <typename RowFn, typename Fn>
CCDB_ALWAYS_INLINE bool WalkOids(const Candidates& cd, size_t n, RowFn row,
                                 Fn fn) {
  if (cd.dense()) {
    const oid_t base = cd.base;  // a local: fn's stores cannot alias it
    for (size_t i = 0; i < n; ++i) {
      if (!fn(i, static_cast<oid_t>(base + row(i)))) return false;
    }
  } else {
    const oid_t* oids = cd.oids->data();
    for (size_t i = 0; i < n; ++i) {
      if (!fn(i, oids[row(i)])) return false;
    }
  }
  return true;
}

/// WalkOids' `row` for a walk over the whole list in order.
constexpr auto kEveryRow = [](size_t i) { return i; };

/// Gathers `v[oid]` for every row of `cd`; OutOfRange when an OID is past
/// the end of `v`.
template <typename T>
StatusOr<std::vector<T>> GatherThrough(const Candidates& cd,
                                       std::span<const T> v) {
  std::vector<T> out(cd.count);
  bool in_range = WalkOids(cd, cd.count, kEveryRow, [&](size_t i, oid_t o) {
    if (o >= v.size()) return false;
    out[i] = v[o];
    return true;
  });
  if (!in_range) return Status::OutOfRange("candidate beyond column");
  return out;
}

/// Calls `fn(keys)` with column `c` of `chunk` as a KeyColumn
/// (algo/join_common.h) over the chunk's rows, read where it lives: a slice
/// of the base column for a dense candidate list, the base column through
/// a sparse one, an owned column as it is. u8, u16 and u32 columns are read
/// at their width, one type switch per call. OutOfRange, before `fn` runs,
/// when a candidate is past the column's end.
template <typename Fn>
Status VisitKeyColumn(const Chunk& chunk, size_t c, Fn&& fn) {
  const ChunkColumn& col = chunk.cols[c];
  const Column& data =
      col.lazy() ? col.base->column_bat(col.base_col).tail() : *col.owned;
  const Candidates owned_rows = Candidates::Dense(0, data.size());
  const Candidates& cd = col.lazy() ? chunk.cands[col.cand_slot] : owned_rows;
  auto visit = [&]<typename T>(std::span<const T> keys) -> Status {
    if (cd.dense()) {
      if (cd.base + cd.count > keys.size()) {
        return Status::OutOfRange("dense candidates beyond BAT");
      }
      return fn(KeyColumn<T, false>{keys.data() + cd.base, nullptr, cd.count});
    }
    oid_t max_oid = 0;
    for (oid_t o : OidSpan(cd)) max_oid = std::max(max_oid, o);
    if (cd.count > 0 && max_oid >= keys.size()) {
      return Status::OutOfRange("candidate oid beyond BAT");
    }
    return fn(KeyColumn<T, true>{keys.data(), cd.oids->data(), cd.count});
  };
  switch (data.type()) {
    case PhysType::kU8:
      return visit(data.Span<uint8_t>());
    case PhysType::kU16:
      return visit(data.Span<uint16_t>());
    case PhysType::kU32:
      return visit(data.Span<uint32_t>());
    default:
      return Status::InvalidArgument(col.name +
                                     " requires a u8, u16 or u32 column, got " +
                                     PhysTypeName(data.type()));
  }
}

/// Chunk::GatherU32 into `out`, reusing its capacity: a caller that
/// gathers chunk after chunk allocates only when a chunk outgrows it.
Status GatherU32Into(const Chunk& chunk, size_t c, std::vector<uint32_t>* out) {
  return VisitKeyColumn(chunk, c, [&](const auto& keys) {
    out->resize(keys.size());
    DirectMemory mem;
    for (size_t i = 0; i < keys.size(); ++i) {
      (*out)[i] = ProbeTuple(keys, i, mem).tail;
    }
    return Status::Ok();
  });
}

}  // namespace

StatusOr<std::vector<uint32_t>> Chunk::GatherU32(size_t c) const {
  std::vector<uint32_t> out;
  CCDB_RETURN_IF_ERROR(GatherU32Into(*this, c, &out));
  return out;
}

StatusOr<std::vector<int64_t>> Chunk::GatherI64(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy() && col.owned->type() == PhysType::kI64) {
    auto s = col.owned->Span<int64_t>();
    return std::vector<int64_t>(s.begin(), s.end());
  }
  if (col.lazy() &&
      col.base->column_bat(col.base_col).tail().type() == PhysType::kI64) {
    return GatherThrough(
        cands[col.cand_slot],
        col.base->column_bat(col.base_col).tail().Span<int64_t>());
  }
  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> narrow, GatherU32(c));
  return std::vector<int64_t>(narrow.begin(), narrow.end());
}

StatusOr<std::vector<double>> Chunk::GatherF64(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy()) {
    if (col.owned->type() != PhysType::kF64) {
      return Status::InvalidArgument("GatherF64 on non-f64 column " +
                                     col.name);
    }
    auto s = col.owned->Span<double>();
    return std::vector<double>(s.begin(), s.end());
  }
  const Column& tail = col.base->column_bat(col.base_col).tail();
  if (tail.type() != PhysType::kF64) {
    return Status::InvalidArgument("GatherF64 on non-f64 column " + col.name);
  }
  return GatherThrough(cands[col.cand_slot], tail.Span<double>());
}

StatusOr<std::vector<std::string>> Chunk::GatherStr(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy()) {
    if (col.owned->type() != PhysType::kStr) {
      return Status::InvalidArgument("GatherStr on non-string column " +
                                     col.name);
    }
    std::vector<std::string> out(col.owned->size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::string(col.owned->GetStr(i));
    }
    return out;
  }
  const Candidates& cd = cands[col.cand_slot];
  if (cd.dense()) {
    std::vector<oid_t> oids(cd.count);
    WalkOids(cd, cd.count, kEveryRow, [&](size_t i, oid_t o) {
      oids[i] = o;
      return true;
    });
    return col.base->GatherStr(col.base_col, oids);
  }
  return col.base->GatherStr(col.base_col, OidSpan(cd));
}

namespace {

StatusOr<Column> TakeOwned(const Column& col,
                           std::span<const uint32_t> positions) {
  switch (col.type()) {
    case PhysType::kU32: {
      auto s = col.Span<uint32_t>();
      std::vector<uint32_t> out(positions.size());
      for (size_t i = 0; i < positions.size(); ++i) out[i] = s[positions[i]];
      return Column::U32(std::move(out));
    }
    case PhysType::kI64: {
      auto s = col.Span<int64_t>();
      std::vector<int64_t> out(positions.size());
      for (size_t i = 0; i < positions.size(); ++i) out[i] = s[positions[i]];
      return Column::I64(std::move(out));
    }
    case PhysType::kF64: {
      auto s = col.Span<double>();
      std::vector<double> out(positions.size());
      for (size_t i = 0; i < positions.size(); ++i) out[i] = s[positions[i]];
      return Column::F64(std::move(out));
    }
    case PhysType::kStr: {
      std::vector<std::string> out(positions.size());
      for (size_t i = 0; i < positions.size(); ++i) {
        out[i] = std::string(col.GetStr(positions[i]));
      }
      return Column::Str(out);
    }
    default:
      return Status::InvalidArgument(
          std::string("cannot take from owned column of type ") +
          PhysTypeName(col.type()));
  }
}

/// True when `positions` keeps all `rows` rows in order: the take is then
/// the chunk itself.
bool IsIdentity(std::span<const uint32_t> positions, size_t rows) {
  if (positions.size() != rows) return false;
  // Blocks with no exit inside, so the compare vectorizes; a list that is
  // not the identity usually fails in its first block.
  constexpr size_t kBlock = 64;
  for (size_t lo = 0; lo < rows; lo += kBlock) {
    uint32_t diff = 0;
    for (size_t i = lo; i < std::min(rows, lo + kBlock); ++i) {
      diff |= positions[i] ^ static_cast<uint32_t>(i);
    }
    if (diff != 0) return false;
  }
  return true;
}

}  // namespace

StatusOr<Chunk> Chunk::Take(std::span<const uint32_t> positions) const {
  if (IsIdentity(positions, rows)) return *this;
  Chunk out;
  out.rows = positions.size();
  out.cands.reserve(cands.size());
  for (const Candidates& cd : cands) {
    std::vector<oid_t> oids(positions.size());
    WalkOids(
        cd, positions.size(),
        [&](size_t i) {
          CCDB_DCHECK(positions[i] < rows);
          return positions[i];
        },
        [&](size_t i, oid_t o) {
          oids[i] = o;
          return true;
        });
    out.cands.push_back(Candidates::FromOids(std::move(oids)));
  }
  out.cols.reserve(cols.size());
  for (const ChunkColumn& col : cols) {
    ChunkColumn c = col;
    if (!col.lazy()) {
      CCDB_ASSIGN_OR_RETURN(Column taken, TakeOwned(*col.owned, positions));
      c.owned = std::make_shared<const Column>(std::move(taken));
    }
    out.cols.push_back(std::move(c));
  }
  return out;
}

Status Chunk::AppendTo(size_t c, MaterializedColumn* out) const {
  switch (TypeOf(c)) {
    case PhysType::kU32: {
      CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> v, GatherU32(c));
      out->u32_values.insert(out->u32_values.end(), v.begin(), v.end());
      return Status::Ok();
    }
    case PhysType::kI64: {
      CCDB_ASSIGN_OR_RETURN(std::vector<int64_t> v, GatherI64(c));
      out->i64_values.insert(out->i64_values.end(), v.begin(), v.end());
      return Status::Ok();
    }
    case PhysType::kF64: {
      CCDB_ASSIGN_OR_RETURN(std::vector<double> v, GatherF64(c));
      out->f64_values.insert(out->f64_values.end(), v.begin(), v.end());
      return Status::Ok();
    }
    case PhysType::kStr: {
      CCDB_ASSIGN_OR_RETURN(std::vector<std::string> v, GatherStr(c));
      for (auto& s : v) out->str_values.push_back(std::move(s));
      return Status::Ok();
    }
    default:
      return Status::Internal("unexpected chunk column type");
  }
}

StatusOr<Chunk> ConcatChunks(std::vector<Chunk> chunks) {
  if (chunks.empty()) {
    return Status::InvalidArgument("ConcatChunks: no chunks");
  }
  if (chunks.size() == 1) return std::move(chunks[0]);
  Chunk out;
  const Chunk& first = chunks[0];
  for (const Chunk& c : chunks) {
    if (c.cols.size() != first.cols.size() ||
        c.cands.size() != first.cands.size()) {
      return Status::InvalidArgument("ConcatChunks: layout mismatch");
    }
    out.rows += c.rows;
  }
  // Candidate lists concatenate into one materialized list per slot.
  for (size_t s = 0; s < first.cands.size(); ++s) {
    size_t n = 0;
    for (const Chunk& c : chunks) n += c.cands[s].count;
    std::vector<oid_t> oids(n);
    oid_t* at = oids.data();
    for (const Chunk& c : chunks) {
      const Candidates& cd = c.cands[s];
      WalkOids(cd, cd.count, kEveryRow, [&](size_t i, oid_t o) {
        at[i] = o;
        return true;
      });
      at += cd.count;
    }
    out.cands.push_back(Candidates::FromOids(std::move(oids)));
  }
  for (size_t ci = 0; ci < first.cols.size(); ++ci) {
    ChunkColumn col = first.cols[ci];
    if (!col.lazy()) {
      // Concatenate owned columns by type.
      switch (col.owned->type()) {
        case PhysType::kU32: {
          std::vector<uint32_t> v;
          v.reserve(out.rows);
          for (const Chunk& c : chunks) {
            auto s = c.cols[ci].owned->Span<uint32_t>();
            v.insert(v.end(), s.begin(), s.end());
          }
          col.owned = std::make_shared<const Column>(Column::U32(std::move(v)));
          break;
        }
        case PhysType::kI64: {
          std::vector<int64_t> v;
          v.reserve(out.rows);
          for (const Chunk& c : chunks) {
            auto s = c.cols[ci].owned->Span<int64_t>();
            v.insert(v.end(), s.begin(), s.end());
          }
          col.owned = std::make_shared<const Column>(Column::I64(std::move(v)));
          break;
        }
        case PhysType::kF64: {
          std::vector<double> v;
          v.reserve(out.rows);
          for (const Chunk& c : chunks) {
            auto s = c.cols[ci].owned->Span<double>();
            v.insert(v.end(), s.begin(), s.end());
          }
          col.owned = std::make_shared<const Column>(Column::F64(std::move(v)));
          break;
        }
        case PhysType::kStr: {
          std::vector<std::string> v;
          v.reserve(out.rows);
          for (const Chunk& c : chunks) {
            for (size_t i = 0; i < c.cols[ci].owned->size(); ++i) {
              v.emplace_back(c.cols[ci].owned->GetStr(i));
            }
          }
          col.owned = std::make_shared<const Column>(Column::Str(v));
          break;
        }
        default:
          return Status::InvalidArgument("ConcatChunks: unsupported owned type");
      }
    }
    out.cols.push_back(std::move(col));
  }
  return out;
}

// --- ScanOp ------------------------------------------------------------------

ScanOp::ScanOp(const Table* table, size_t chunk_rows)
    : table_(table), chunk_rows_(chunk_rows == 0 ? SIZE_MAX : chunk_rows) {}

Status ScanOp::Open() {
  pos_ = 0;
  emitted_ = false;
  return Status::Ok();
}

StatusOr<bool> ScanOp::Next(Chunk* out) {
  size_t total = table_->num_rows();
  if (pos_ >= total && emitted_) return false;
  size_t n = std::min(chunk_rows_, total - pos_);
  out->rows = n;
  out->cands = {Candidates::Dense(static_cast<oid_t>(pos_), n)};
  out->cols.clear();
  for (size_t i = 0; i < table_->num_columns(); ++i) {
    ChunkColumn c;
    c.name = table_->schema().field(i).name;
    c.base = table_;
    c.base_col = i;
    c.cand_slot = 0;
    out->cols.push_back(std::move(c));
  }
  pos_ += n;
  emitted_ = true;
  return true;
}

// --- SelectOp ----------------------------------------------------------------

SelectOp::SelectOp(std::unique_ptr<Operator> child, Expr expr,
                   const ExecContext* ctx)
    : child_(std::move(child)),
      // An empty conjunction is logically true: expr_ stays empty and
      // Next() passes chunks through (plan validation rejects it, but
      // SelectOp is also composed directly).
      expr_(LowerFilter(std::move(expr))),
      ctx_(ctx) {}

Status SelectOp::Open() { return child_->Open(); }
void SelectOp::Close() { child_->Close(); }

namespace {

// --- filter evaluation -------------------------------------------------------
// One walk evaluates a normalized expression over a chunk's rows, or over
// the positions that survive an enclosing conjunct, and one leaf function
// tests every leaf's rows against its LeafValues set (exec/expr.h) — the
// set ExprSubsumes reasons over, so shared scans and the filter cache
// narrow and copy exactly what the walk computes. Every result is an
// ascending, duplicate-free list of chunk positions, so And narrows pass
// by pass and Or merge-unions its branches: candidate lists all the way
// down, never an intermediate BAT.

/// One inclusive value range on the u32 (value or dictionary-code) domain.
struct U32Range {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// An integer value set restricted to the u32 domain of u8/u16/u32 columns
/// and dictionary codes: `x != 7` is [0,6] u [8,max], a wide literal's
/// half-line or range is clamped, and what lies outside is dropped.
std::vector<U32Range> ClampToU32(std::span<const LeafSet::IntInterval> ints) {
  std::vector<U32Range> out;
  for (const LeafSet::IntInterval& i : ints) {
    int64_t lo = std::max<int64_t>(i.lo, 0);
    int64_t hi = std::min<int64_t>(i.hi, UINT32_MAX);
    if (lo <= hi) {
      out.push_back({static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)});
    }
  }
  return out;
}

/// A string set on an encoded column's dictionary codes (§3.1 predicate
/// remap): the strings the dictionary knows become code points, an In-list
/// over codes that LeafValues canonicalizes and, for a complemented set,
/// complements — so an unknown string selects nothing or, negated,
/// everything.
std::vector<U32Range> CodeRanges(const ChunkColumn& col, const LeafSet& set) {
  Expr codes = InU32(Col(col.name), {});
  codes.negated = set.str_negated;
  for (const std::string& s : set.strs) {
    auto code = col.base->dict(col.base_col).Lookup(s);
    if (code.ok()) codes.in_u32.push_back(*code);
  }
  return ClampToU32(LeafValues(codes)->ints);
}

/// Directly-composed SelectOps bypass Build() validation, so every leaf
/// re-checks that its literal domain matches the column — a mismatch must
/// stay a loud error, never a comparison against the wrong Literal member
/// or against an encoded column's dictionary codes.
Status CheckLeafDomain(PhysType col_type, const Expr& leaf) {
  Literal::Type lt = LeafLiteralType(leaf);
  bool ok = false;
  switch (col_type) {
    case PhysType::kU32:
    case PhysType::kI64:
      ok = lt == Literal::Type::kU32 || lt == Literal::Type::kI64;
      break;
    case PhysType::kF64:
      ok = lt == Literal::Type::kF64;
      break;
    case PhysType::kStr:
      ok = lt == Literal::Type::kStr;
      break;
    default:
      break;
  }
  if (!ok) {
    return Status::InvalidArgument(
        "filter: literal type does not match column '" + leaf.column + "' (" +
        PhysTypeName(col_type) + ")");
  }
  return Status::Ok();
}

/// Membership in a disjoint, ascending interval set (U32Range or
/// LeafSet::IntInterval). Small sets test every range without branching on
/// the value, so a random column costs no mispredictions; larger ones
/// (IN-lists) binary-search on lo.
template <class Ranges, class T>
inline bool InRanges(const Ranges& ranges, T v) {
  if (ranges.size() <= 4) {
    bool in = false;
    for (const auto& r : ranges) in |= (r.lo <= v) & (v <= r.hi);
    return in;
  }
  // Last range with lo <= v, if any.
  size_t lo = 0, hi = ranges.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (ranges[mid].lo <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo > 0 && v <= ranges[lo - 1].hi;
}

/// Membership in an f64 set by ordered comparisons only, so -0.0 and 0.0
/// are one value; NaN lies in no interval and matches through the NaN bit.
/// Like InRanges, it does not branch on the value.
inline bool InF64Set(const LeafSet& set, double v) {
  bool in = set.nan & (v != v);
  for (const LeafSet::F64Interval& i : set.f64s) {
    in |= (i.lo_open ? i.lo < v : i.lo <= v) &
          (i.hi_open ? v < i.hi : v <= i.hi);
  }
  return in;
}

/// The one filter loop: emits row(i), for i in [lo, hi), when
/// keep(get(oid)) holds, oid being row(i)'s OID in `cd` and `size` the
/// column length the OIDs must stay below. Rows ascend, so a dense walk
/// checks its last OID once and runs unchecked; a list walk checks every
/// OID. Every row is written and only a match advances the output, so the
/// loop has no data-dependent branch.
template <class Row, class Get, class Keep>
StatusOr<std::vector<uint32_t>> SelectRows(const Candidates& cd, size_t size,
                                           Row row, size_t lo, size_t hi,
                                           Get get, Keep keep) {
  auto at = [&](size_t i) { return row(lo + i); };
  std::vector<uint32_t> out(hi - lo);
  uint32_t* dst = out.data();
  size_t kept = 0;
  auto walk = [&](auto checked) {
    return WalkOids(cd, hi - lo, at, [&](size_t i, oid_t o) {
      if constexpr (decltype(checked)::value) {
        if (o >= size) return false;
      }
      dst[kept] = static_cast<uint32_t>(at(i));
      kept += keep(get(o)) ? 1 : 0;
      return true;
    });
  };
  if (cd.dense()) {
    if (hi > lo && size_t{cd.base} + at(hi - lo - 1) >= size) {
      return Status::OutOfRange("candidate beyond column");
    }
    walk(std::false_type{});
  } else if (!walk(std::true_type{})) {
    return Status::OutOfRange("candidate beyond column");
  }
  out.resize(kept);
  return out;
}

/// Selects rows [lo, hi) of `row` whose value in `vals`, read through
/// `cd`, lies in `set`. u8/u16/u32 values and dictionary codes test
/// `ranges`, the set on the u32 domain.
template <class Row>
StatusOr<std::vector<uint32_t>> SelectLeafRows(
    const LeafSet& set, std::span<const U32Range> ranges, const Column& vals,
    const Candidates& cd, Row row, size_t lo, size_t hi) {
  auto select = [&](auto get, auto keep) {
    return SelectRows(cd, vals.size(), row, lo, hi, get, keep);
  };
  auto integral = [&](auto get) {
    if (ranges.size() == 1) {
      U32Range r = ranges[0];
      return select(get, [r](uint32_t v) { return r.lo <= v && v <= r.hi; });
    }
    return select(get, [ranges](uint32_t v) { return InRanges(ranges, v); });
  };
  switch (vals.type()) {
    case PhysType::kU8: {
      const uint8_t* v = vals.Span<uint8_t>().data();
      return integral([v](oid_t o) { return uint32_t{v[o]}; });
    }
    case PhysType::kU16: {
      const uint16_t* v = vals.Span<uint16_t>().data();
      return integral([v](oid_t o) { return uint32_t{v[o]}; });
    }
    case PhysType::kU32: {
      const uint32_t* v = vals.Span<uint32_t>().data();
      return integral([v](oid_t o) { return v[o]; });
    }
    case PhysType::kI64: {
      const int64_t* v = vals.Span<int64_t>().data();
      return select([v](oid_t o) { return v[o]; },
                    [&set](int64_t x) { return InRanges(set.ints, x); });
    }
    case PhysType::kF64: {
      const double* v = vals.Span<double>().data();
      return select([v](oid_t o) { return v[o]; },
                    [&set](double x) { return InF64Set(set, x); });
    }
    case PhysType::kStr:
      return select([&vals](oid_t o) { return vals.GetStr(o); },
                    [&set](std::string_view s) {
                      return std::binary_search(set.strs.begin(),
                                                set.strs.end(), s,
                                                std::less<>{}) !=
                             set.str_negated;
                    });
    default:
      return integral([&vals](oid_t o) {
        return static_cast<uint32_t>(vals.GetIntegral(o));
      });
  }
}

/// Evaluates one leaf over every chunk row (`survivors` null) or over the
/// survivors of an enclosing conjunct, returning the matching positions.
/// An owned column (aggregate output) is read in place at chunk positions;
/// a lazy one at base OIDs through its candidate list.
StatusOr<std::vector<uint32_t>> EvalLeaf(const Chunk& in, const Expr& leaf,
                                         const std::vector<uint32_t>* survivors,
                                         const ExecContext* ctx) {
  CCDB_ASSIGN_OR_RETURN(size_t ci, in.Find(leaf.column));
  CCDB_RETURN_IF_ERROR(CheckLeafDomain(in.TypeOf(ci), leaf));
  std::optional<LeafSet> set = LeafValues(leaf);
  if (!set.has_value()) {
    return Status::InvalidArgument(
        "filter: string columns support = and != only ('" + leaf.column +
        "')");
  }
  const ChunkColumn& col = in.cols[ci];
  const Candidates chunk_rows = Candidates::Dense(0, in.rows);
  const Candidates& cd = col.lazy() ? in.cands[col.cand_slot] : chunk_rows;
  const Column& vals =
      col.lazy() ? col.base->column_bat(col.base_col).tail() : *col.owned;
  // Integral values of at most 32 bits — an encoded column's codes among
  // them (CheckLeafDomain admits strings there only on those) — test the
  // set on the u32 domain.
  std::vector<U32Range> ranges;
  PhysType t = vals.type();
  if (t != PhysType::kI64 && t != PhysType::kF64 && t != PhysType::kStr) {
    ranges = set->domain == LeafSet::Domain::kStr ? CodeRanges(col, *set)
                                                  : ClampToU32(set->ints);
    if (ranges.empty()) return std::vector<uint32_t>{};
  }
  size_t n = survivors == nullptr ? in.rows : survivors->size();
  auto slice = [&](size_t lo, size_t hi) {
    if (survivors == nullptr) {
      return SelectLeafRows(*set, ranges, vals, cd,
                            [](size_t i) { return i; }, lo, hi);
    }
    const uint32_t* s = survivors->data();
    return SelectLeafRows(*set, ranges, vals, cd,
                          [s](size_t i) { return size_t{s[i]}; }, lo, hi);
  };
  // Lazy columns split into morsels: shard s fills slot s, and the ordered
  // concatenation equals the serial result exactly.
  size_t shards = col.lazy() ? CtxShards(ctx, n) : 1;
  if (shards <= 1) return slice(0, n);
  std::vector<std::vector<uint32_t>> parts(shards);
  CCDB_RETURN_IF_ERROR(ExecParallelFor(ctx, shards, [&](size_t s) -> Status {
    CCDB_ASSIGN_OR_RETURN(parts[s],
                          slice(n * s / shards, n * (s + 1) / shards));
    return Status::Ok();
  }));
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> positions;
  positions.reserve(total);
  for (const auto& p : parts) {
    positions.insert(positions.end(), p.begin(), p.end());
  }
  return positions;
}

/// The OR combiner: merge-union of ascending, duplicate-free position
/// lists. A position appearing in several branches is emitted exactly
/// once, and the result is ascending again.
std::vector<uint32_t> UnionSortedPositions(
    std::vector<std::vector<uint32_t>> lists) {
  // Fold pairwise set_union: each input is ascending and duplicate-free, so
  // the union is too, and a position shared by branches survives once.
  std::vector<uint32_t> acc;
  bool first = true;
  std::vector<uint32_t> merged;
  for (std::vector<uint32_t>& l : lists) {
    if (first) {
      acc = std::move(l);
      first = false;
      continue;
    }
    if (l.empty()) continue;
    merged.clear();
    merged.reserve(acc.size() + l.size());
    std::set_union(acc.begin(), acc.end(), l.begin(), l.end(),
                   std::back_inserter(merged));
    acc.swap(merged);
  }
  return acc;
}

/// Evaluates a normalized expression over every chunk row (`survivors`
/// null) or over `survivors`, returning the matching positions.
StatusOr<std::vector<uint32_t>> EvalExpr(const Chunk& in, const Expr& e,
                                         const std::vector<uint32_t>* survivors,
                                         const ExecContext* ctx) {
  if (survivors != nullptr && survivors->empty()) {
    return std::vector<uint32_t>{};
  }
  switch (e.kind) {
    case Expr::Kind::kAnd: {
      // Each conjunct narrows the survivors of the one before it.
      std::vector<uint32_t> rows;
      for (size_t i = 0; i < e.children.size(); ++i) {
        CCDB_ASSIGN_OR_RETURN(
            rows, EvalExpr(in, e.children[i], i == 0 ? survivors : &rows, ctx));
      }
      return rows;
    }
    case Expr::Kind::kOr: {
      // Every branch reads the same rows; the union keeps each matching
      // position exactly once, in order.
      std::vector<std::vector<uint32_t>> parts(e.children.size());
      for (size_t i = 0; i < e.children.size(); ++i) {
        CCDB_ASSIGN_OR_RETURN(parts[i],
                              EvalExpr(in, e.children[i], survivors, ctx));
      }
      return UnionSortedPositions(std::move(parts));
    }
    case Expr::Kind::kNot:
      return Status::Internal("filter expression not normalized (NOT node)");
    default:
      return EvalLeaf(in, e, survivors, ctx);
  }
}

}  // namespace

// Public faces of the walk above (declared in exec/shared_scan.h):
// shared-scan providers filter fanned-out chunks with the exact code
// SelectOp runs, so sharing cannot change results.
StatusOr<std::vector<uint32_t>> EvalFilterPositions(const Chunk& chunk,
                                                    const Expr& normalized,
                                                    const ExecContext* ctx) {
  return EvalExpr(chunk, normalized, nullptr, ctx);
}

StatusOr<std::vector<uint32_t>> NarrowFilterPositions(
    const Chunk& chunk, const Expr& normalized,
    std::vector<uint32_t> positions, const ExecContext* ctx) {
  // A dense walk bounds its OIDs by the last survivor.
  CCDB_DCHECK(std::is_sorted(positions.begin(), positions.end()));
  return EvalExpr(chunk, normalized, &positions, ctx);
}

StatusOr<bool> SelectOp::Next(Chunk* out) {
  Chunk in;
  CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  if (!expr_.has_value()) {
    *out = std::move(in);
    return true;
  }
  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> positions,
                        EvalExpr(in, *expr_, nullptr, ctx_));
  CCDB_ASSIGN_OR_RETURN(*out, in.Take(positions));
  return true;
}

// --- JoinOp ------------------------------------------------------------------

JoinOp::JoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
               std::string left_key, std::string right_key, JoinType join_type,
               JoinStrategy strategy, const MachineProfile& profile,
               JoinNodeInfo* info, const ExecContext* ctx,
               uint64_t est_probe_rows)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      join_type_(join_type),
      strategy_(strategy),
      profile_(profile),
      info_(info),
      ctx_(ctx),
      est_probe_rows_(est_probe_rows) {}

Status JoinOp::Open() {
  CCDB_RETURN_IF_ERROR(left_->Open());
  CCDB_RETURN_IF_ERROR(right_->Open());
  // Drain the inner (build) side, then plan the join for its *actual*
  // cardinality: the per-node cost-model consultation.
  std::vector<Chunk> inner_chunks;
  for (;;) {
    CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
    Chunk c;
    CCDB_ASSIGN_OR_RETURN(bool more, right_->Next(&c));
    if (!more) break;
    inner_chunks.push_back(std::move(c));
  }
  CCDB_ASSIGN_OR_RETURN(inner_, ConcatChunks(std::move(inner_chunks)));
  CCDB_ASSIGN_OR_RETURN(size_t rk, inner_.Find(right_key_));
  // Scratch for the build only: every prepared form below owns its copy.
  // A build side that resolves through one candidate list (a base table,
  // filtered or not) carries its base OIDs as BUN heads; every join loop
  // passes heads through unchanged, so each match names its build row as
  // the output needs it and nothing re-gathers the build side. Other
  // shapes (join results, aggregates, serialized exchange outputs) carry
  // chunk positions, which Next() takes the inner through. The keys are
  // read in place, as the probe's are.
  build_oids_ = inner_.cands.size() == 1 &&
                std::all_of(inner_.cols.begin(), inner_.cols.end(),
                            [](const ChunkColumn& c) { return c.lazy(); });
  BunVec inner_buns;
  CCDB_RETURN_IF_ERROR(VisitKeyColumn(inner_, rk, [&](const auto& keys) {
    const Candidates heads = build_oids_ ? inner_.cands[0]
                                        : Candidates::Dense(0, keys.size());
    inner_buns.resize(keys.size());
    DirectMemory mem;
    WalkOids(heads, keys.size(), kEveryRow, [&](size_t i, oid_t head) {
      inner_buns[i] = {head, ProbeTuple(keys, i, mem).tail};
      return true;
    });
    return Status::Ok();
  }));
  // Keys over an eligible domain may join positionally (§3.1): its head
  // array takes no more memory than the stored key column, which is the
  // base column for a base-table inner and the inner's rows otherwise.
  const uint64_t n = inner_buns.size();
  const uint64_t c_probe = est_probe_rows_ > 0 ? est_probe_rows_ : n;
  const KeyDomain domain = KeyDomainOf(inner_buns);
  const uint64_t column_rows =
      build_oids_ ? inner_.cols[rk].base->num_rows() : inner_.rows;
  std::optional<KeyDomain> positional;
  if (PositionalEligible(domain, column_rows)) positional = domain;
  // An empty inner needs no clustering; the model's argmin is undefined at
  // C = 0.
  plan_ = n == 0 ? PlanJoin(JoinStrategy::kSimpleHash, 0, profile_)
                 : PlanJoin(strategy_, n, c_probe, positional, profile_);

  // Prepare the inner side exactly once for the chosen plan, timed as the
  // cluster_right phase; probe chunks reuse it (a clustered hash join's table
  // slices are built by its probe tasks, in join_ms). A repeated key stops
  // the positional build, and the join runs the hash plan instead.
  WallTimer t_prepare;
  InnerBuild::Memory mem;
  Status prepared = build_.Prepare(inner_buns, ShapeOf(plan_), mem);
  if (prepared.code() == StatusCode::kFailedPrecondition &&
      plan_.positional.has_value()) {
    plan_ = PlanJoin(strategy_, n, profile_);
    prepared = build_.Prepare(inner_buns, ShapeOf(plan_), mem);
  }
  CCDB_RETURN_IF_ERROR(prepared);
  const double prepare_ms = t_prepare.ElapsedMillis();
  // Report the cost of the join that runs: PlanJoin priced a hash plan at
  // the paper's symmetric C = inner; the asymmetric composition prices the
  // actual inner against the estimated probe side.
  CostModel model(profile_);
  plan_.predicted_ms =
      model.Millis(JoinModelPrediction(model, plan_, n, c_probe));

  if (info_ != nullptr) {
    info_->left_key = left_key_;
    info_->right_key = right_key_;
    info_->join_type = join_type_;
    info_->inner_cardinality = inner_.rows;
    info_->plan = plan_;
    info_->stats = JoinStats{};
    info_->stats.bits = plan_.bits;
    info_->stats.passes = plan_.passes;
    info_->stats.cluster_right_ms = prepare_ms;
    info_->inner_cluster_runs = 1;
    info_->partition_tasks = 0;
    info_->parallelism = CtxParallelism(ctx_);
  }
  return Status::Ok();
}

void JoinOp::Close() {
  left_->Close();
  right_->Close();
  build_ = InnerBuild{};
  inner_ = Chunk{};
  probe_ = ProbeBuffers{};
}

namespace {

/// The output a probe task's join loop emits through: stores match k as
/// lpos[k] (probe position) and rpos[k] (build head) in the task's region
/// of the two lists, one slot per probe row, so a PK-FK task never spills;
/// past the region it appends to the task's spill buffer.
struct MatchSink {
  uint32_t* lpos;
  uint32_t* rpos;
  size_t slots;
  size_t filled;
  BunVec* spill;

  /// The hash probe's append: stores into the next slot and advances by
  /// `keep`, so a miss costs a dead store instead of a branch.
  CCDB_ALWAYS_INLINE void push_back_if(Bun b, bool keep) {
    if (filled != slots) [[likely]] {
      lpos[filled] = b.head;
      rpos[filled] = b.tail;
      filled += keep;
    } else if (keep) {
      spill->push_back(b);
    }
  }
  CCDB_ALWAYS_INLINE void push_back(Bun b) { push_back_if(b, true); }
};

}  // namespace

template <class Probe>
Status JoinOp::JoinPartitions(const Probe& probe,
                              std::span<const uint64_t> bounds) {
  // Tasks, the independent units the pool executes: the whole chunk for
  // sort-merge, morsel shards of the probe for simple hash and positional,
  // and otherwise one task per probe cluster whose radix value has inner
  // tuples.
  std::vector<JoinTask>& tasks = probe_.tasks;
  const size_t n = bounds.back();
  build_.Tasks(bounds, CtxShards(ctx_, n), &tasks);
  if (info_ != nullptr && build_.shape().clusters()) {
    info_->partition_tasks += tasks.size();
  }

  // Every task runs the driver's join loop — a merge against the sorted
  // inner, a nested loop over the radix cluster pair, a probe of the
  // partition's hash table slice or of the positional head array — into
  // its region [lo, hi) of the two position lists.
  std::vector<uint32_t>& lpos = probe_.lpos;
  std::vector<uint32_t>& rpos = probe_.rpos;
  lpos.resize(n);
  rpos.resize(n);
  probe_.filled.resize(tasks.size());
  if (probe_.spill.size() < tasks.size()) probe_.spill.resize(tasks.size());
  // ExecParallelFor polls cancellation/deadline before every task; this
  // poll covers a chunk without tasks.
  CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
  CCDB_RETURN_IF_ERROR(
      ExecParallelFor(ctx_, tasks.size(), [&](size_t t) -> Status {
        const JoinTask& task = tasks[t];
        probe_.spill[t].clear();
        MatchSink out{lpos.data() + task.lo, rpos.data() + task.lo,
                      task.hi - task.lo, 0, &probe_.spill[t]};
        InnerBuild::Memory mem;
        build_.Run(task, probe, mem, out);
        probe_.filled[t] = out.filled;
        return Status::Ok();
      }));

  // Close the gaps, in task order so output is identical at any
  // parallelism: task t's matches (its region's filled prefix, then its
  // spill) go to at[t], the count of the matches before it. When every
  // region is full (PK-FK) nothing moves. A region moves left unless
  // spills before it push it right; a run of tasks whose matches reach
  // into the next task's region is placed last to first, so no region is
  // overwritten before it is read.
  std::vector<size_t>& at = probe_.at;
  at.assign(tasks.size() + 1, 0);
  for (size_t t = 0; t < tasks.size(); ++t) {
    at[t + 1] = at[t] + probe_.filled[t] + probe_.spill[t].size();
  }
  const size_t total = at.back();
  if (total > n) {
    lpos.resize(total);
    rpos.resize(total);
  }
  auto place = [&](size_t t) {
    const size_t lo = tasks[t].lo, filled = probe_.filled[t];
    if (at[t] != lo) {
      std::memmove(&lpos[at[t]], &lpos[lo], filled * sizeof(uint32_t));
      std::memmove(&rpos[at[t]], &rpos[lo], filled * sizeof(uint32_t));
    }
    size_t k = at[t] + filled;
    for (const Bun& b : probe_.spill[t]) {
      lpos[k] = b.head;
      rpos[k++] = b.tail;
    }
  };
  for (size_t t = 0; t < tasks.size();) {
    size_t last = t;
    while (last + 1 < tasks.size() && at[last + 1] > tasks[last + 1].lo) {
      ++last;
    }
    for (size_t u = last + 1; u-- > t;) place(u);
    t = last + 1;
  }
  lpos.resize(total);
  rpos.resize(total);
  return Status::Ok();
}

StatusOr<bool> JoinOp::Next(Chunk* out) {
  Chunk probe;
  CCDB_ASSIGN_OR_RETURN(bool more, left_->Next(&probe));
  if (!more) return false;
  CCDB_ASSIGN_OR_RETURN(size_t lk, probe.Find(left_key_));
  // Only the cache-sized probe chunk is reorganized per Next(); the inner
  // stays prepared from Open(). The positional and simple-hash plans read
  // the key column in place, with chunk positions as probe heads; the
  // others cluster or sort [chunk position, key] BUNs filled straight from
  // it. join_ms is everything but that reorganization (cluster_left_ms).
  JoinStats stats;
  WallTimer t_join;
  CCDB_RETURN_IF_ERROR(VisitKeyColumn(probe, lk, [&](const auto& keys) {
    if (!build_.shape().reorganizes()) {
      const uint64_t bounds[] = {0, keys.size()};
      return JoinPartitions(keys, bounds);
    }
    InnerBuild::Memory mem;
    probe_.buns.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      probe_.buns[i] = ProbeTuple(keys, i, mem);
    }
    WallTimer t_cluster;
    CCDB_RETURN_IF_ERROR(
        build_.Reorganize(probe_.buns, mem, &probe_.reorganized));
    stats.cluster_left_ms = t_cluster.ElapsedMillis();
    return JoinPartitions(probe_.reorganized.tuples,
                          probe_.reorganized.clustered.bounds);
  }));
  stats.join_ms = t_join.ElapsedMillis() - stats.cluster_left_ms;
  // The match list [probe position, inner position] becomes an output
  // chunk according to the join type; the prepared inner and probe phases
  // above are identical for all four types.
  switch (join_type_) {
    case JoinType::kInner: {
      // Take the probe side through its positions, resolve the build rows,
      // then zip the column sets. Both sides stay lazy — the join produced
      // nothing but candidate lists.
      CCDB_ASSIGN_OR_RETURN(Chunk lpart, probe.Take(probe_.lpos));
      CCDB_ASSIGN_OR_RETURN(Chunk rpart, BuildRows(std::move(probe_.rpos)));
      out->rows = probe_.lpos.size();
      out->cands = std::move(lpart.cands);
      size_t shift = out->cands.size();
      for (Candidates& cd : rpart.cands) out->cands.push_back(std::move(cd));
      out->cols = std::move(lpart.cols);
      for (ChunkColumn& c : rpart.cols) {
        if (c.lazy()) c.cand_slot += shift;
        out->cols.push_back(std::move(c));
      }
      break;
    }
    case JoinType::kSemi:
    case JoinType::kAnti: {
      // A filter on the probe side: emit probe rows with (semi) / without
      // (anti) a match, in probe order — each row at most once.
      std::vector<uint8_t> matched(probe.rows, 0);
      for (uint32_t l : probe_.lpos) matched[l] = 1;
      const uint8_t want = join_type_ == JoinType::kSemi ? 1 : 0;
      std::vector<uint32_t> positions;
      for (size_t i = 0; i < probe.rows; ++i) {
        if (matched[i] == want) positions.push_back(static_cast<uint32_t>(i));
      }
      CCDB_ASSIGN_OR_RETURN(*out, probe.Take(positions));
      break;
    }
    case JoinType::kLeftOuter: {
      // Probe order with unmatched probe rows interleaved (null right
      // side): a stable counting sort of the matches (which arrive in
      // radix order) on their probe position. Probe row i owns
      // max(1, its match count) output slots starting at slot[i].
      std::vector<uint32_t> slot(probe.rows, 0);
      for (uint32_t l : probe_.lpos) ++slot[l];
      std::vector<uint32_t> lpos;
      lpos.reserve(probe_.lpos.size() + probe.rows);
      for (size_t i = 0; i < probe.rows; ++i) {
        size_t rows = std::max<uint32_t>(slot[i], 1);
        slot[i] = static_cast<uint32_t>(lpos.size());
        lpos.insert(lpos.end(), rows, static_cast<uint32_t>(i));
      }
      std::vector<uint32_t> rpos(lpos.size(), 0);
      std::vector<uint8_t> valid(lpos.size(), 0);
      for (size_t m = 0; m < probe_.lpos.size(); ++m) {
        uint32_t at = slot[probe_.lpos[m]]++;
        rpos[at] = probe_.rpos[m];
        valid[at] = 1;
      }
      CCDB_ASSIGN_OR_RETURN(Chunk lpart, probe.Take(lpos));
      CCDB_ASSIGN_OR_RETURN(std::vector<ChunkColumn> rcols,
                            TakeInnerWithNulls(std::move(rpos), valid));
      out->rows = lpos.size();
      out->cands = std::move(lpart.cands);
      out->cols = std::move(lpart.cols);
      for (ChunkColumn& c : rcols) out->cols.push_back(std::move(c));
      break;
    }
  }
  stats.result_count = out->rows;
  if (info_ != nullptr) {
    info_->stats.cluster_left_ms += stats.cluster_left_ms;
    info_->stats.cluster_right_ms += stats.cluster_right_ms;
    info_->stats.join_ms += stats.join_ms;
    info_->stats.result_count += stats.result_count;
  }
  return true;
}

StatusOr<Chunk> JoinOp::BuildRows(std::vector<uint32_t>&& heads) const {
  if (!build_oids_) return inner_.Take(heads);
  Chunk out;
  out.rows = heads.size();
  out.cands = {Candidates::FromOids(std::move(heads))};
  out.cols = inner_.cols;
  return out;
}

StatusOr<std::vector<ChunkColumn>> JoinOp::TakeInnerWithNulls(
    std::vector<uint32_t>&& rpos, std::span<const uint8_t> valid) const {
  // Materialize the inner rows rpos names (all rows are unmatched when the
  // inner is empty, so nothing is resolved), then overwrite null slots with
  // the type's surrogate. Null slots hold head 0, a valid position and
  // base OID whenever the inner has rows. Owned columns always, so every
  // chunk of a left-outer join has the same layout.
  const size_t n = rpos.size();
  Chunk taken;
  if (inner_.rows > 0) {
    CCDB_ASSIGN_OR_RETURN(taken, BuildRows(std::move(rpos)));
  }
  std::vector<ChunkColumn> out;
  out.reserve(inner_.cols.size());
  for (size_t c = 0; c < inner_.cols.size(); ++c) {
    ChunkColumn col;
    col.name = inner_.cols[c].name;
    switch (inner_.TypeOf(c)) {
      case PhysType::kU32: {
        std::vector<uint32_t> v;
        if (inner_.rows > 0) {
          CCDB_ASSIGN_OR_RETURN(v, taken.GatherU32(c));
          for (size_t i = 0; i < n; ++i) {
            if (!valid[i]) v[i] = 0;
          }
        } else {
          v.assign(n, 0);
        }
        col.owned = std::make_shared<const Column>(Column::U32(std::move(v)));
        break;
      }
      case PhysType::kI64: {
        std::vector<int64_t> v;
        if (inner_.rows > 0) {
          CCDB_ASSIGN_OR_RETURN(v, taken.GatherI64(c));
          for (size_t i = 0; i < n; ++i) {
            if (!valid[i]) v[i] = 0;
          }
        } else {
          v.assign(n, 0);
        }
        col.owned = std::make_shared<const Column>(Column::I64(std::move(v)));
        break;
      }
      case PhysType::kF64: {
        std::vector<double> v;
        if (inner_.rows > 0) {
          CCDB_ASSIGN_OR_RETURN(v, taken.GatherF64(c));
          for (size_t i = 0; i < n; ++i) {
            if (!valid[i]) v[i] = 0.0;
          }
        } else {
          v.assign(n, 0.0);
        }
        col.owned = std::make_shared<const Column>(Column::F64(std::move(v)));
        break;
      }
      case PhysType::kStr: {
        std::vector<std::string> v;
        if (inner_.rows > 0) {
          CCDB_ASSIGN_OR_RETURN(v, taken.GatherStr(c));
          for (size_t i = 0; i < n; ++i) {
            if (!valid[i]) v[i].clear();
          }
        } else {
          v.resize(n);
        }
        col.owned = std::make_shared<const Column>(Column::Str(v));
        break;
      }
      default:
        return Status::Internal("unexpected inner column type");
    }
    out.push_back(std::move(col));
  }
  return out;
}

// --- ProjectOp ---------------------------------------------------------------

ProjectOp::ProjectOp(std::unique_ptr<Operator> child,
                     std::vector<std::string> columns)
    : child_(std::move(child)), columns_(std::move(columns)) {}

Status ProjectOp::Open() { return child_->Open(); }
void ProjectOp::Close() { child_->Close(); }

StatusOr<bool> ProjectOp::Next(Chunk* out) {
  Chunk in;
  CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  out->rows = in.rows;
  out->cols.clear();
  out->cands.clear();
  // Keep only the candidate slots the projected columns still use.
  std::vector<size_t> slot_map(in.cands.size(), SIZE_MAX);
  for (const std::string& name : columns_) {
    CCDB_ASSIGN_OR_RETURN(size_t ci, in.Find(name));
    ChunkColumn col = in.cols[ci];
    if (col.lazy()) {
      if (slot_map[col.cand_slot] == SIZE_MAX) {
        slot_map[col.cand_slot] = out->cands.size();
        out->cands.push_back(in.cands[col.cand_slot]);
      }
      col.cand_slot = slot_map[col.cand_slot];
    }
    out->cols.push_back(std::move(col));
  }
  return true;
}

// --- GroupByAggOp ------------------------------------------------------------

GroupByAggOp::GroupByAggOp(std::unique_ptr<Operator> child,
                           std::vector<std::string> group_cols,
                           std::vector<AggSpec> aggs, const ExecContext* ctx,
                           size_t expected_groups)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      ctx_(ctx),
      expected_groups_(expected_groups) {}

Status GroupByAggOp::Open() {
  done_ = false;
  return child_->Open();
}
void GroupByAggOp::Close() { child_->Close(); }

StatusOr<bool> GroupByAggOp::Next(Chunk* out) {
  if (done_) return false;
  done_ = true;

  const size_t kw = group_cols_.size();
  // Distinct value columns, in first-use order: several aggregates over the
  // same column (min+max+avg) share one accumulator slot.
  std::vector<std::string> value_cols;
  std::vector<size_t> agg_value_idx(aggs_.size(), SIZE_MAX);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].func == AggFunc::kCount) continue;
    size_t v = 0;
    while (v < value_cols.size() && value_cols[v] != aggs_[a].value_col) ++v;
    if (v == value_cols.size()) value_cols.push_back(aggs_[a].value_col);
    agg_value_idx[a] = v;
  }
  const size_t nv = value_cols.size();

  // One group table per worker shard, persistent across chunks. At
  // parallelism 1 the single table sees rows in stream order — byte
  // identical to a serial reference; shard merging (parallelism > 1) may
  // emit groups in a different (still deterministic) order.
  size_t nshards =
      (ctx_ != nullptr && ctx_->parallel()) ? ctx_->parallelism : 1;
  // Every shard may see every group, so each partial gets the full
  // planner-estimated capacity (rehash-free growth when the estimate
  // holds), bounded so a wild overestimate (the estimator's all-distinct
  // fallback on a stats-less key) cannot allocate nshards x estimate
  // upfront — past the cap, demand-grown rehashing costs one rebuild per
  // 2x anyway. At the cap a shard's slot array is 2^18 slots x 8 B = 2 MiB,
  // the most any shard writes at construction. Shards are emplaced
  // individually: copying a prototype through the vector fill-constructor
  // would drop its reservations.
  constexpr size_t kMaxGroupHint = size_t{1} << 17;
  const size_t hint = std::min(expected_groups_, kMaxGroupHint);
  std::vector<GroupAggTable<DirectMemory>> partials;
  partials.reserve(nshards);
  for (size_t s = 0; s < nshards; ++s) {
    partials.emplace_back(kw, nv, hint);
  }
  DirectMemory mem;

  // Dictionaries for decoding encoded group columns on emission.
  std::vector<const Table*> dict_tables(kw, nullptr);
  std::vector<size_t> dict_cols(kw, 0);

  // The gathered key and value columns, reused chunk after chunk.
  std::vector<std::vector<uint32_t>> keys(kw), vals(nv);
  for (;;) {
    // Blocking consume loop: the plan's per-chunk deadline/cancel poll in
    // PhysicalPlan::Execute never fires while we drain the child, so poll
    // here (serial shards skip ExecParallelFor's per-morsel check too).
    CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
    Chunk in;
    CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    // For encoded group columns the gather reads the 1-2 byte codes — the
    // aggregate groups on codes and decodes only the final group keys.
    for (size_t c = 0; c < kw; ++c) {
      CCDB_ASSIGN_OR_RETURN(size_t gi, in.Find(group_cols_[c]));
      const ChunkColumn& gcol = in.cols[gi];
      if (gcol.lazy() && gcol.base->is_encoded(gcol.base_col)) {
        dict_tables[c] = gcol.base;
        dict_cols[c] = gcol.base_col;
      }
      CCDB_RETURN_IF_ERROR(GatherU32Into(in, gi, &keys[c]));
    }
    for (size_t v = 0; v < nv; ++v) {
      CCDB_ASSIGN_OR_RETURN(size_t vi, in.Find(value_cols[v]));
      CCDB_RETURN_IF_ERROR(GatherU32Into(in, vi, &vals[v]));
    }
    const size_t n = in.rows;
    std::vector<const uint32_t*> key_cols(kw), val_cols(nv);
    for (size_t c = 0; c < kw; ++c) key_cols[c] = keys[c].data();
    for (size_t v = 0; v < nv; ++v) val_cols[v] = vals[v].data();
    size_t shards = nshards == 1 ? 1 : CtxShards(ctx_, n);
    if (shards <= 1) {
      partials[0].AddColumns(key_cols, val_cols, 0, n, mem);
    } else {
      CCDB_RETURN_IF_ERROR(
          ExecParallelFor(ctx_, shards, [&](size_t s) -> Status {
            DirectMemory shard_mem;
            partials[s].AddColumns(key_cols, val_cols, n * s / shards,
                                   n * (s + 1) / shards, shard_mem);
            return Status::Ok();
          }));
    }
  }

  for (size_t s = 1; s < nshards; ++s) {
    partials[0].MergeFrom(partials[s], mem);
  }
  const GroupAggTable<DirectMemory>& agg = partials[0];
  const size_t ngroups = agg.num_groups();

  out->rows = ngroups;
  out->cands.clear();
  out->cols.clear();
  for (size_t c = 0; c < kw; ++c) {
    ChunkColumn group;
    group.name = group_cols_[c];
    if (dict_tables[c] != nullptr) {
      const StrDictionary& dict = dict_tables[c]->dict(dict_cols[c]);
      std::vector<std::string> decoded(ngroups);
      for (size_t g = 0; g < ngroups; ++g) {
        uint32_t code = agg.key(g, c);
        if (code >= dict.size()) {
          return Status::Internal("group code beyond dictionary");
        }
        decoded[g] = std::string(dict.Get(code));
      }
      group.owned = std::make_shared<const Column>(Column::Str(decoded));
    } else {
      std::vector<uint32_t> raw(ngroups);
      for (size_t g = 0; g < ngroups; ++g) raw[g] = agg.key(g, c);
      group.owned = std::make_shared<const Column>(Column::U32(std::move(raw)));
    }
    out->cols.push_back(std::move(group));
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ChunkColumn col;
    col.name = aggs_[a].output_name;
    const size_t v = agg_value_idx[a];
    switch (aggs_[a].func) {
      case AggFunc::kSum: {
        std::vector<int64_t> sums(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          // The unchecked u64 -> i64 narrowing used to wrap into negative
          // sums here; surface overflow instead.
          CCDB_ASSIGN_OR_RETURN(sums[g], CheckedI64(agg.state(g, v).sum));
        }
        col.owned =
            std::make_shared<const Column>(Column::I64(std::move(sums)));
        break;
      }
      case AggFunc::kCount: {
        std::vector<int64_t> counts(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          CCDB_ASSIGN_OR_RETURN(counts[g], CheckedI64(agg.group_rows(g)));
        }
        col.owned =
            std::make_shared<const Column>(Column::I64(std::move(counts)));
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const bool is_min = aggs_[a].func == AggFunc::kMin;
        std::vector<uint32_t> ext(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          ext[g] = is_min ? agg.state(g, v).min : agg.state(g, v).max;
        }
        col.owned =
            std::make_shared<const Column>(Column::U32(std::move(ext)));
        break;
      }
      case AggFunc::kAvg: {
        std::vector<double> avgs(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          avgs[g] = static_cast<double>(agg.state(g, v).sum) /
                    static_cast<double>(agg.group_rows(g));
        }
        col.owned =
            std::make_shared<const Column>(Column::F64(std::move(avgs)));
        break;
      }
    }
    out->cols.push_back(std::move(col));
  }
  return true;
}

// --- OrderByOp ---------------------------------------------------------------

OrderByOp::OrderByOp(std::unique_ptr<Operator> child, std::string column,
                     bool descending, const ExecContext* ctx)
    : child_(std::move(child)),
      column_(std::move(column)),
      descending_(descending),
      ctx_(ctx) {}

Status OrderByOp::Open() {
  done_ = false;
  return child_->Open();
}
void OrderByOp::Close() { child_->Close(); }

namespace {

// The order-by key order: `<`, except that an f64 NaN sorts after every
// number. IEEE `<` alone is no strict weak order once NaN is present, so
// stable_sort and the shard merge would each scramble the rows
// differently.
template <typename T>
bool OrderKeyLess(const T& a, const T& b) {
  return a < b;
}
bool OrderKeyLess(double a, double b) {
  return !std::isnan(a) && (std::isnan(b) || a < b);
}

}  // namespace

StatusOr<bool> OrderByOp::Next(Chunk* out) {
  if (done_) return false;
  done_ = true;
  std::vector<Chunk> chunks;
  for (;;) {
    CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
    Chunk c;
    CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&c));
    if (!more) break;
    chunks.push_back(std::move(c));
  }
  CCDB_ASSIGN_OR_RETURN(Chunk all, ConcatChunks(std::move(chunks)));
  CCDB_ASSIGN_OR_RETURN(size_t ci, all.Find(column_));
  std::vector<uint32_t> positions(all.rows);
  for (size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<uint32_t>(i);
  }
  auto argsort = [&](const auto& keys) -> Status {
    const bool desc = descending_;
    auto cmp = [&keys, desc](uint32_t a, uint32_t b) {
      return desc ? OrderKeyLess(keys[b], keys[a])
                  : OrderKeyLess(keys[a], keys[b]);
    };
    size_t shards = CtxShards(ctx_, positions.size());
    if (shards <= 1) {
      std::stable_sort(positions.begin(), positions.end(), cmp);
      return Status::Ok();
    }
    // Parallel merge sort: stable-sort contiguous shards on the pool, then
    // fold left to right. inplace_merge takes from the left run on ties —
    // exactly stable_sort's tie-break — so any parallelism produces the
    // byte-identical permutation.
    std::vector<std::ptrdiff_t> bounds(shards + 1);
    for (size_t s = 0; s <= shards; ++s) {
      bounds[s] = static_cast<std::ptrdiff_t>(positions.size() * s / shards);
    }
    CCDB_RETURN_IF_ERROR(
        ExecParallelFor(ctx_, shards, [&](size_t s) -> Status {
          std::stable_sort(positions.begin() + bounds[s],
                           positions.begin() + bounds[s + 1], cmp);
          return Status::Ok();
        }));
    for (size_t s = 1; s < shards; ++s) {
      std::inplace_merge(positions.begin(), positions.begin() + bounds[s],
                         positions.begin() + bounds[s + 1], cmp);
    }
    return Status::Ok();
  };
  switch (all.TypeOf(ci)) {
    case PhysType::kU32: {
      CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> keys, all.GatherU32(ci));
      CCDB_RETURN_IF_ERROR(argsort(keys));
      break;
    }
    case PhysType::kI64: {
      CCDB_ASSIGN_OR_RETURN(std::vector<int64_t> keys, all.GatherI64(ci));
      CCDB_RETURN_IF_ERROR(argsort(keys));
      break;
    }
    case PhysType::kF64: {
      CCDB_ASSIGN_OR_RETURN(std::vector<double> keys, all.GatherF64(ci));
      CCDB_RETURN_IF_ERROR(argsort(keys));
      break;
    }
    case PhysType::kStr: {
      CCDB_ASSIGN_OR_RETURN(std::vector<std::string> keys, all.GatherStr(ci));
      CCDB_RETURN_IF_ERROR(argsort(keys));
      break;
    }
    default:
      return Status::Internal("unexpected order-by key type");
  }
  CCDB_ASSIGN_OR_RETURN(*out, all.Take(positions));
  return true;
}

// --- LimitOp -----------------------------------------------------------------

LimitOp::LimitOp(std::unique_ptr<Operator> child, size_t limit, size_t offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {}

Status LimitOp::Open() {
  skipped_ = 0;
  emitted_ = 0;
  emitted_chunk_ = false;
  return child_->Open();
}
void LimitOp::Close() { child_->Close(); }

StatusOr<bool> LimitOp::Next(Chunk* out) {
  // Once the limit is reached, stop pulling from the child — but only
  // after at least one (possibly zero-row) chunk carried the layout
  // downstream. This must not depend on emitted_ > 0: Limit(0) reaches its
  // limit immediately and used to drain the whole child instead.
  if (emitted_chunk_ && emitted_ >= limit_) return false;
  Chunk in;
  CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  size_t skip = std::min(offset_ - skipped_, in.rows);
  skipped_ += skip;
  size_t take = std::min(in.rows - skip, limit_ - emitted_);
  emitted_ += take;
  std::vector<uint32_t> positions(take);
  for (size_t i = 0; i < take; ++i) {
    positions[i] = static_cast<uint32_t>(skip + i);
  }
  CCDB_ASSIGN_OR_RETURN(*out, in.Take(positions));
  emitted_chunk_ = true;
  return true;
}

}  // namespace ccdb
