// Grouping and aggregation (§3.2): hash-grouping keeps a hash table of
// groups that usually fits the caches, beating sort/merge grouping whose
// sort randomly accesses the entire relation. Both are provided so the
// claim can be measured: GroupAggTable is the one hash-grouping table (the
// engine's, and per cluster RadixGroupSum's), SortGroupSum the baseline.
#ifndef CCDB_ALGO_AGGREGATE_H_
#define CCDB_ALGO_AGGREGATE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "algo/join_common.h"
#include "algo/radix_sort.h"
#include "util/bits.h"
#include "util/status.h"

namespace ccdb {

/// Aggregates per distinct key: keys[] in per-cluster first-appearance
/// order for radix grouping, ascending for sort-grouping.
struct GroupAggregates {
  std::vector<uint32_t> keys;
  std::vector<uint64_t> sums;
  std::vector<uint64_t> counts;

  size_t size() const { return keys.size(); }
};

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

/// Group table over multi-column group keys with a GroupAggState per value
/// column — the per-shard partial table of the generalized group-by
/// operator (§3.2: the group table usually stays cache-resident while
/// chunks stream through). Its slot array maps a key to its group id in one
/// of two forms:
///  - direct: while the keys' bounding box (per key column c the range
///    [lo_c, hi_c]) has at most as many cells as the slot array, a key's
///    slot is its mixed-radix offset in the box and holds the group id: no
///    hash, no probe loop, no key compare — position instead of search, as
///    for void OIDs and the positional join (§3.1). Dense domains such as
///    dictionary codes and dimension attributes take this form.
///  - hashed: otherwise, linear-probing slots hold {hash, group id} at load
///    <= 1/2 and are indexed by the hash's high bits, so the keys of one
///    radix cluster (equal low hash bits) still spread over every slot.
/// The index never takes more memory than the slot array, which is sized
/// (and doubled) by the group count alone in either form, so the planner's
/// footprint estimate holds. AddColumns widens the box once per block from
/// the block's per-column min/max; a widening rebuilds the index from the
/// stored keys and at least doubles each growing range (so rebuilds stay
/// logarithmic), and a box that outgrows the slot array switches the table
/// to the hashed form. A doubling of the slot array re-checks whether the
/// stored keys' box now fits. Keys are stored flat with stride key_width.
/// Groups keep first-appearance order, so a single table fed in stream order
/// reproduces a serial reference exactly, and MergeFrom appends unseen
/// groups in the other table's order (deterministic shard-order merging).
/// Group order, states and rehash_count() do not depend on the form.
/// AddColumns is the columnar bulk path; Add, AccumulateGroup and MergeFrom
/// are the one-row case of the same lookup.
///
/// Written against a memory policy (mem/access.h) like every core
/// algorithm: each call takes the `Mem&` through which it reads the input
/// and reads and writes the slots, keys, row counts and states. The empty
/// slot array the constructor allocates is not counted. Instantiated for
/// DirectMemory and SimulatedMemory.
template <class Mem>
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
  void Add(const uint32_t* key, const uint32_t* values, Mem& mem);

  /// Folds input rows [lo, hi) given column-wise: key word c of row i is
  /// keys[c][i], value v is values[v][i] (keys.size() == key_width,
  /// values.size() == num_values). Equal to Add on each row in row order —
  /// same groups, group order and states — but works in L1-sized blocks:
  /// computes a position vector from the key columns (box offsets, after
  /// widening the box to the block's min/max, or hashes), resolves a
  /// group-id vector, then folds the row counts and each value column by
  /// group id.
  void AddColumns(std::span<const uint32_t* const> keys,
                  std::span<const uint32_t* const> values, size_t lo,
                  size_t hi, Mem& mem);

  /// Folds one pre-aggregated group — `rows` input rows whose per-value
  /// accumulators are states[0..num_values). This is the per-group step of
  /// MergeFrom; public so overflow handling in downstream i64 narrowing can
  /// be regression-tested without accumulating 2^31 actual rows.
  void AccumulateGroup(const uint32_t* key, uint64_t rows,
                       const GroupAggState* states, Mem& mem);

  /// Merges another shard's partial table into this one.
  void MergeFrom(const GroupAggTable& other, Mem& mem);

  size_t num_groups() const { return rows_.size(); }
  size_t key_width() const { return key_width_; }
  size_t num_values() const { return num_values_; }

  /// Times the slot array was rebuilt because the group count outgrew the
  /// (hinted) capacity; refitting the box or switching forms does not
  /// count. 0 whenever the constructor hint was >= the final group count —
  /// the planner-presizing contract, regression-tested.
  size_t rehash_count() const { return rehashes_; }

  /// Whether the slot array currently indexes groups by box offset (the
  /// direct form) rather than by hash.
  bool is_direct() const { return direct_; }

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
    uint32_t pos;    // the key's hash, or in the direct form its box offset
    uint32_t group;  // kEmpty marks a free slot
  };
  /// Key column c's range of the direct form's box: keys [base, base +
  /// span], each step weighing `stride` slots.
  struct BoxRange {
    uint32_t base = 0, span = 0, stride = 0;
  };

  /// Group index for the key at position `pos` (Position) whose word c is
  /// key_at(c), inserting a zeroed group when unseen. `kDirect` is the
  /// table's form, a template argument so a block's loop has no per-row
  /// form branch.
  template <bool kDirect, class KeyAt>
  uint32_t FindOrInsert(uint32_t pos, KeyAt key_at, Mem& mem);
  /// FindOrInsert for one row's key (Add, AccumulateGroup, MergeFrom).
  uint32_t FindOrInsertKey(const uint32_t* key, Mem& mem);
  /// Position of `key` in the current form, first refitting the index if
  /// the key lies outside the direct form's box (or the hashed form is due
  /// a re-check).
  uint32_t Position(const uint32_t* key, Mem& mem);
  /// Box offset of `key`, or nullopt when it lies outside the box.
  std::optional<uint32_t> Offset(const uint32_t* key, Mem& mem) const;
  /// Fits the index to the stored keys plus keys in [lo_c, hi_c] per
  /// column: the direct form over a box widened to cover them when it fits
  /// the slot array, else the hashed form; rebuilds the slots on a change.
  void Refit(std::span<const uint32_t> lo, std::span<const uint32_t> hi,
             Mem& mem);
  /// Clears the slots and places every stored group in the current form.
  void Reindex(Mem& mem);
  /// Puts `group` into the first free slot from the home of `pos`.
  void Place(uint32_t pos, uint32_t group, Mem& mem);
  /// Doubles the slot array and reinserts every group by its stored
  /// position.
  void Grow(Mem& mem);
  /// Home slot of `pos`: the offset itself, or the hash's high bits in a
  /// table of 2^(32 - shift_) slots.
  size_t Home(uint32_t pos) const { return direct_ ? pos : pos >> shift_; }

  static constexpr uint32_t kEmpty = UINT32_MAX;
  /// Largest direct box: offsets and strides stay 32-bit.
  static constexpr uint64_t kMaxBoxCells = uint64_t{1} << 31;
  size_t key_width_, num_values_;
  std::vector<uint32_t> keys_;         // flat, stride key_width_
  std::vector<uint64_t> rows_;         // per group
  std::vector<GroupAggState> states_;  // flat, stride num_values_
  std::vector<Slot> slots_;            // linear probing, load <= 1/2
  uint32_t mask_;
  int shift_;  // 32 - log2(slots)
  size_t rehashes_ = 0;
  std::vector<BoxRange> box_;  // per key column, in the direct form
  bool direct_ = false;
  // Hashed form: the next key re-checks whether the box fits (set at the
  // start and by each doubling).
  bool recheck_ = true;
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
