#include "serve/plan_cache.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"

namespace ccdb {
namespace {

// FNV-1a over heterogeneous fields. Every Mix call also folds in a field
// tag from the call site where adjacent variable-length fields could
// otherwise alias (e.g. {"ab"} vs {"a","b"} in a column list).
struct Hasher {
  uint64_t h = kFnv1aBasis;

  void Bytes(const void* p, size_t n) {
    h = Fnv1a({static_cast<const char*>(p), n}, h);
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void F64(double v) {
    // Bit pattern, not value: -0.0 vs 0.0 and NaN payloads distinguish
    // plans, which is safe (worst case a needless miss).
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
};

void HashLiteral(Hasher& h, const Literal& l) {
  h.U64(static_cast<uint64_t>(l.type));
  switch (l.type) {
    case Literal::Type::kU32:
      h.U64(l.u32);
      break;
    case Literal::Type::kI64:
      h.U64(static_cast<uint64_t>(l.i64));
      break;
    case Literal::Type::kF64:
      h.F64(l.f64);
      break;
    case Literal::Type::kStr:
      h.Str(l.str);
      break;
  }
}

void HashExpr(Hasher& h, const Expr& e) {
  h.U64(static_cast<uint64_t>(e.kind));
  h.Str(e.column);
  h.U64(e.negated ? 1 : 0);
  h.U64(static_cast<uint64_t>(e.cmp));
  HashLiteral(h, e.value);
  HashLiteral(h, e.lo);
  HashLiteral(h, e.hi);
  h.U64(e.in_u32.size());
  for (uint32_t v : e.in_u32) h.U64(v);
  h.U64(e.in_str.size());
  for (const std::string& s : e.in_str) h.Str(s);
  h.U64(e.children.size());
  for (const Expr& c : e.children) HashExpr(h, c);
}

void HashNode(Hasher& h, const LogicalNode& n) {
  h.U64(static_cast<uint64_t>(n.op));
  // Fingerprints key on the Table's liveness() token (exec/table.h), not
  // its raw address: the token names the table object *incarnation* — it
  // changes when a table is copy-assigned over in place and dies with the
  // object — so a recycled address can never alias a different table's
  // entry. Equal table copies still intentionally miss (each copy has its
  // own token and data_version stream). Plans remain comparable only
  // within one process, which is all a cache key needs.
  const void* identity =
      n.table != nullptr ? n.table->liveness().lock().get() : nullptr;
  h.U64(reinterpret_cast<uintptr_t>(identity));
  HashExpr(h, n.filter);
  h.Str(n.left_key);
  h.Str(n.right_key);
  h.U64(static_cast<uint64_t>(n.join_type));
  h.U64(static_cast<uint64_t>(n.join_strategy));
  h.U64(n.columns.size());
  for (const std::string& c : n.columns) h.Str(c);
  h.U64(n.group_cols.size());
  for (const std::string& c : n.group_cols) h.Str(c);
  h.U64(n.aggs.size());
  for (const AggSpec& a : n.aggs) {
    h.U64(static_cast<uint64_t>(a.func));
    h.Str(a.value_col);
    h.Str(a.output_name);
  }
  h.Str(n.order_col);
  h.U64(n.descending ? 1 : 0);
  h.U64(n.limit);
  h.U64(n.offset);
  h.U64(n.children.size());
  for (const auto& c : n.children) HashNode(h, *c);
}

}  // namespace

uint64_t PlanFingerprint(const LogicalPlan& plan) {
  Hasher h;
  HashNode(h, plan.root());
  return h.h;
}

uint32_t CardinalityBand(size_t rows) {
  uint32_t band = 0;
  while (rows != 0) {
    ++band;
    rows >>= 1;
  }
  return band;
}

namespace {

std::vector<uint32_t> CurrentBands(const std::vector<const Table*>& tables) {
  std::vector<uint32_t> bands(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    bands[i] = CardinalityBand(tables[i]->num_rows());
  }
  return bands;
}

std::vector<std::weak_ptr<const void>> LivenessTokens(
    const std::vector<const Table*>& tables) {
  std::vector<std::weak_ptr<const void>> live(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) live[i] = tables[i]->liveness();
  return live;
}

/// True when any recorded liveness token has expired: the entry refers to
/// a destroyed (or copy-assigned-over) Table, so its raw pointers must not
/// be dereferenced. Checked before every band re-check; expired entries
/// are evicted gracefully, so the cache tolerates table churn instead of
/// asserting on it.
bool AnyTableExpired(const std::vector<std::weak_ptr<const void>>& live) {
  for (const auto& token : live) {
    if (token.expired()) return true;
  }
  return false;
}

}  // namespace

PlanCache::Entry* PlanCache::Find(uint64_t key) {
  for (Entry& e : entries_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

std::optional<PhysicalPlan> PlanCache::Acquire(uint64_t key,
                                               const LogicalPlan& plan) {
  MutexLock lock(&mu_);
  Entry* e = Find(key);
  if (e == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (AnyTableExpired(e->live)) {
    // A scanned table died (or was replaced in place): the pooled plans
    // reference it and can never be served again. Evict the entry.
    ++stats_.invalidations;
    ++stats_.misses;
    entries_.erase(entries_.begin() + (e - entries_.data()));
    return std::nullopt;
  }
  if (e->bands != CurrentBands(e->tables)) {
    // The table grew (or shrank, via copy-assign) past a power of two since
    // this entry's plans were lowered: their join strategies and pre-sizing
    // no longer match the data. Drop the whole entry.
    ++stats_.invalidations;
    ++stats_.misses;
    entries_.erase(entries_.begin() + (e - entries_.data()));
    return std::nullopt;
  }
  e->last_used = ++tick_;
  if (e->pool.empty()) {
    // Entry known but every pooled plan is checked out by another session.
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  PhysicalPlan p = std::move(e->pool.back());
  e->pool.pop_back();
  (void)plan;
  return p;
}

void PlanCache::Release(uint64_t key, const LogicalPlan& plan,
                        PhysicalPlan physical) {
  // A plan must never carry a previous request's scheduling state (stale
  // deadline or cancel flag) into its next checkout.
  physical.BindSchedule(nullptr);
  MutexLock lock(&mu_);
  Entry* e = Find(key);
  if (e != nullptr && AnyTableExpired(e->live)) {
    // A recorded table died while this plan was out: the entry is
    // unusable. Evict it and re-seed below from the returning request,
    // whose tables are necessarily alive.
    ++stats_.invalidations;
    entries_.erase(entries_.begin() + (e - entries_.data()));
    e = nullptr;
  }
  if (e == nullptr) {
    if (entries_.size() >= max_entries_) {
      // LRU eviction, linear scan: max_entries_ is small by design.
      size_t victim = 0;
      for (size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].last_used < entries_[victim].last_used) victim = i;
      }
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    Entry fresh;
    fresh.key = key;
    fresh.tables = plan.Tables();
    fresh.bands = CurrentBands(fresh.tables);
    fresh.live = LivenessTokens(fresh.tables);
    fresh.last_used = ++tick_;
    fresh.pool.push_back(std::move(physical));
    entries_.push_back(std::move(fresh));
    return;
  }
  std::vector<uint32_t> now = CurrentBands(e->tables);
  if (e->bands != now) {
    // Bands moved while this plan executed; re-seed the entry with only
    // the returning plan if it was lowered against the *current* bands —
    // we cannot tell, so conservatively drop pooled plans and record the
    // fresh bands with an empty pool (next request re-lowers).
    ++stats_.invalidations;
    e->bands = std::move(now);
    e->pool.clear();
    return;
  }
  e->last_used = ++tick_;
  if (e->pool.size() < max_plans_per_entry_) {
    e->pool.push_back(std::move(physical));
  }
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace ccdb
