// Grouping and aggregation (§3.2): hash-grouping keeps a hash table of
// groups that usually fits the caches, beating sort/merge grouping whose
// sort randomly accesses the entire relation. Both are provided so the
// claim can be measured.
#ifndef CCDB_ALGO_AGGREGATE_H_
#define CCDB_ALGO_AGGREGATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algo/join_common.h"
#include "algo/radix_sort.h"
#include "util/bits.h"
#include "util/status.h"

namespace ccdb {

/// Aggregates per distinct key: keys[] in first-appearance order for
/// hash-grouping, ascending for sort-grouping.
struct GroupAggregates {
  std::vector<uint32_t> keys;
  std::vector<uint64_t> sums;
  std::vector<uint64_t> counts;

  size_t size() const { return keys.size(); }
};

/// Hash-grouping: one scan; bucket-chained hash table over the groups.
template <class Mem, class HashFn = IdentityHash>
GroupAggregates HashGroupSum(std::span<const uint32_t> keys,
                             std::span<const uint32_t> values, Mem& mem,
                             size_t expected_groups = 1024) {
  CCDB_CHECK(keys.size() == values.size());
  GroupAggregates out;
  size_t nbuckets = NextPowerOfTwo(std::max<size_t>(expected_groups, 16));
  uint32_t mask = static_cast<uint32_t>(nbuckets - 1);
  constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<uint32_t> heads(nbuckets, kEmpty);
  std::vector<uint32_t> next;
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t k = mem.Load(&keys[i]);
    uint32_t v = mem.Load(&values[i]);
    uint32_t b = HashFn::Hash(k) & mask;
    uint32_t g = mem.Load(&heads[b]);
    while (g != kEmpty && mem.Load(&out.keys[g]) != k) {
      g = mem.Load(&next[g]);
    }
    if (g == kEmpty) {
      g = static_cast<uint32_t>(out.keys.size());
      out.keys.push_back(k);
      out.sums.push_back(0);
      out.counts.push_back(0);
      next.push_back(mem.Load(&heads[b]));
      mem.Store(&heads[b], g);
    }
    mem.Update(&out.sums[g], static_cast<uint64_t>(v));
    mem.Update(&out.counts[g], uint64_t{1});
  }
  return out;
}

/// Per-(group, value-column) accumulator carrying everything any aggregate
/// function needs: SUM and AVG read `sum` (plus the group's row count kept
/// by the table), MIN/MAX the extremes. Partials merge exactly: sums add,
/// extremes fold — so shard-parallel aggregation loses nothing.
struct GroupAggState {
  uint64_t sum = 0;
  uint32_t min = UINT32_MAX;
  uint32_t max = 0;
};

/// Narrows an unsigned running aggregate to the signed i64 output column,
/// surfacing overflow past INT64_MAX as OutOfRange instead of silently
/// emitting a negative value.
inline StatusOr<int64_t> CheckedI64(uint64_t v) {
  if (v > static_cast<uint64_t>(INT64_MAX)) {
    return Status::OutOfRange("aggregate exceeds INT64_MAX");
  }
  return static_cast<int64_t>(v);
}

/// Open-addressing hash table over multi-column group keys with a
/// GroupAggState per value column — the per-shard partial table of the
/// generalized group-by operator (§3.2: the group table usually stays
/// cache-resident while chunks stream through). Linear-probing slots hold
/// {hash, group id} at load <= 1/2; keys are stored flat with stride
/// key_width. Groups keep first-appearance order, so a single table fed in
/// stream order reproduces a serial reference exactly, and MergeFrom appends
/// unseen groups in the other table's order (deterministic shard-order
/// merging). AddColumns is the columnar bulk path; Add, AccumulateGroup and
/// MergeFrom are the one-row case of the same lookup.
class GroupAggTable {
 public:
  /// `key_width` group-key words per row, `num_values` aggregated columns
  /// (0 is valid: a pure COUNT keeps only per-group row counts).
  /// `expected_groups` pre-sizes the slot array (2 slots per group) and
  /// group storage so growth stays rehash-free whenever the hint covers the
  /// final group count — the planner passes its grouped-cardinality
  /// estimate here. 0 keeps the default (512 slots, 4 KiB).
  GroupAggTable(size_t key_width, size_t num_values,
                size_t expected_groups = 0);

  /// Folds one input row: key[0..key_width), values[0..num_values).
  void Add(const uint32_t* key, const uint32_t* values);

  /// Folds input rows [lo, hi) given column-wise: key word c of row i is
  /// keys[c][i], value v is values[v][i] (keys.size() == key_width,
  /// values.size() == num_values). Equal to Add on each row in row order —
  /// same groups, group order and states — but works in L1-sized blocks:
  /// hashes the key columns into a hash vector, resolves a group-id vector,
  /// then folds the row counts and each value column by group id.
  void AddColumns(std::span<const uint32_t* const> keys,
                  std::span<const uint32_t* const> values, size_t lo,
                  size_t hi);

  /// Folds one pre-aggregated group — `rows` input rows whose per-value
  /// accumulators are states[0..num_values). This is the per-group step of
  /// MergeFrom; public so overflow handling in downstream i64 narrowing can
  /// be regression-tested without accumulating 2^31 actual rows.
  void AccumulateGroup(const uint32_t* key, uint64_t rows,
                       const GroupAggState* states);

  /// Merges another shard's partial table into this one.
  void MergeFrom(const GroupAggTable& other);

  size_t num_groups() const { return rows_.size(); }
  size_t key_width() const { return key_width_; }
  size_t num_values() const { return num_values_; }

  /// Times the slot array was rebuilt because the group count outgrew the
  /// (hinted) capacity. 0 whenever the constructor hint was >= the final
  /// group count — the planner-presizing contract, regression-tested.
  size_t rehash_count() const { return rehashes_; }

  /// Key word `k` of group `g`.
  uint32_t key(size_t g, size_t k) const { return keys_[g * key_width_ + k]; }
  /// Input rows folded into group `g` (the COUNT aggregate).
  uint64_t group_rows(size_t g) const { return rows_[g]; }
  /// Accumulator of value column `v` for group `g`.
  const GroupAggState& state(size_t g, size_t v) const {
    return states_[g * num_values_ + v];
  }

 private:
  struct Slot {
    uint32_t hash;
    uint32_t group;  // kEmpty marks a free slot
  };

  /// Group index for the key whose hash is `hash` and whose word c is
  /// key_at(c), inserting a zeroed group when unseen.
  template <class KeyAt>
  uint32_t FindOrInsert(uint32_t hash, KeyAt key_at);
  /// Doubles the slot array and reinserts every group by its stored hash.
  void Grow();

  static constexpr uint32_t kEmpty = UINT32_MAX;
  size_t key_width_, num_values_;
  std::vector<uint32_t> keys_;         // flat, stride key_width_
  std::vector<uint64_t> rows_;         // per group
  std::vector<GroupAggState> states_;  // flat, stride num_values_
  std::vector<Slot> slots_;            // linear probing, load <= 1/2
  uint32_t mask_;
  size_t rehashes_ = 0;
};

/// Sort/merge grouping: sorts [key,value] pairs, then aggregates runs.
template <class Mem>
GroupAggregates SortGroupSum(std::span<const uint32_t> keys,
                             std::span<const uint32_t> values, Mem& mem) {
  CCDB_CHECK(keys.size() == values.size());
  std::vector<Bun> pairs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    // head = value payload, tail = group key (tail is the sort key).
    mem.Store(&pairs[i], Bun{mem.Load(&values[i]), mem.Load(&keys[i])});
  }
  QuickSortByTail(std::span<Bun>(pairs), mem);
  GroupAggregates out;
  size_t i = 0;
  while (i < pairs.size()) {
    uint32_t k = mem.Load(&pairs[i]).tail;
    uint64_t sum = 0, count = 0;
    while (i < pairs.size()) {
      Bun p = mem.Load(&pairs[i]);
      if (p.tail != k) break;
      sum += p.head;
      ++count;
      ++i;
    }
    out.keys.push_back(k);
    out.sums.push_back(sum);
    out.counts.push_back(count);
  }
  return out;
}

}  // namespace ccdb

#endif  // CCDB_ALGO_AGGREGATE_H_
