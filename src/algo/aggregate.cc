#include "algo/aggregate.h"

#include <algorithm>

namespace ccdb {

namespace {

/// Murmur-folds the key words so multi-column keys spread over the slots
/// even when individual columns are small dense domains. AddColumns folds
/// the same way a column at a time.
uint32_t HashKey(const uint32_t* key, size_t width) {
  uint32_t h = 0;
  for (size_t k = 0; k < width; ++k) {
    h = MurmurHash::Hash(h ^ key[k]);
  }
  return h;
}

}  // namespace

GroupAggTable::GroupAggTable(size_t key_width, size_t num_values,
                             size_t expected_groups)
    : key_width_(key_width), num_values_(num_values) {
  CCDB_CHECK(key_width_ > 0);
  // Two slots per expected group keep the load <= 1/2, so an estimate that
  // is right (or high) never pays a rehash. The default 512 slots (4 KiB)
  // hold 256 groups before the first doubling.
  size_t slots = 512;
  if (expected_groups > 0) {
    slots = NextPowerOfTwo(std::max<size_t>(expected_groups * 2, 16));
    keys_.reserve(expected_groups * key_width_);
    rows_.reserve(expected_groups);
    states_.reserve(expected_groups * num_values_);
  }
  slots_.assign(slots, Slot{0, kEmpty});
  mask_ = static_cast<uint32_t>(slots - 1);
}

template <class KeyAt>
uint32_t GroupAggTable::FindOrInsert(uint32_t hash, KeyAt key_at) {
  size_t s = hash & mask_;
  for (;; s = (s + 1) & mask_) {
    const Slot slot = slots_[s];
    if (slot.group == kEmpty) break;
    if (slot.hash != hash) continue;
    const uint32_t* k = &keys_[size_t{slot.group} * key_width_];
    size_t c = 0;
    while (c < key_width_ && k[c] == key_at(c)) ++c;
    if (c == key_width_) return slot.group;
  }
  const uint32_t g = static_cast<uint32_t>(rows_.size());
  for (size_t c = 0; c < key_width_; ++c) keys_.push_back(key_at(c));
  rows_.push_back(0);
  states_.resize(states_.size() + num_values_);
  slots_[s] = Slot{hash, g};
  if (rows_.size() * 2 > slots_.size()) Grow();
  return g;
}

void GroupAggTable::Grow() {
  ++rehashes_;
  std::vector<Slot> old(slots_.size() * 2, Slot{0, kEmpty});
  old.swap(slots_);
  mask_ = static_cast<uint32_t>(slots_.size() - 1);
  for (const Slot& slot : old) {
    if (slot.group == kEmpty) continue;
    size_t s = slot.hash & mask_;
    while (slots_[s].group != kEmpty) s = (s + 1) & mask_;
    slots_[s] = slot;
  }
}

void GroupAggTable::Add(const uint32_t* key, const uint32_t* values) {
  uint32_t g = FindOrInsert(HashKey(key, key_width_),
                            [key](size_t c) { return key[c]; });
  rows_[g] += 1;
  GroupAggState* s = states_.data() + size_t{g} * num_values_;
  for (size_t v = 0; v < num_values_; ++v) {
    s[v].sum += values[v];
    s[v].min = std::min(s[v].min, values[v]);
    s[v].max = std::max(s[v].max, values[v]);
  }
}

void GroupAggTable::AddColumns(std::span<const uint32_t* const> keys,
                               std::span<const uint32_t* const> values,
                               size_t lo, size_t hi) {
  CCDB_CHECK(keys.size() == key_width_ && values.size() == num_values_);
  // 1024 rows keep the hash and group-id vectors (8 KiB) in L1 beside the
  // group table the §3.2 argument assumes is cache-resident.
  constexpr size_t kBlock = 1024;
  uint32_t hash[kBlock] = {};
  uint32_t group[kBlock] = {};
  for (size_t base = lo; base < hi; base += kBlock) {
    const size_t n = std::min(kBlock, hi - base);
    std::fill_n(hash, n, 0u);
    for (const uint32_t* col : keys) {
      for (size_t i = 0; i < n; ++i) {
        hash[i] = MurmurHash::Hash(hash[i] ^ col[base + i]);
      }
    }
    // Row order: new groups get ids in first-appearance order, as with Add.
    for (size_t i = 0; i < n; ++i) {
      group[i] = FindOrInsert(
          hash[i], [&keys, row = base + i](size_t c) { return keys[c][row]; });
    }
    for (size_t i = 0; i < n; ++i) rows_[group[i]] += 1;
    for (size_t v = 0; v < num_values_; ++v) {
      const uint32_t* col = values[v] + base;
      GroupAggState* states = states_.data() + v;
      for (size_t i = 0; i < n; ++i) {
        GroupAggState& s = states[size_t{group[i]} * num_values_];
        s.sum += col[i];
        s.min = std::min(s.min, col[i]);
        s.max = std::max(s.max, col[i]);
      }
    }
  }
}

void GroupAggTable::AccumulateGroup(const uint32_t* key, uint64_t rows,
                                    const GroupAggState* states) {
  uint32_t g = FindOrInsert(HashKey(key, key_width_),
                            [key](size_t c) { return key[c]; });
  rows_[g] += rows;
  GroupAggState* s = states_.data() + size_t{g} * num_values_;
  for (size_t v = 0; v < num_values_; ++v) {
    s[v].sum += states[v].sum;
    s[v].min = std::min(s[v].min, states[v].min);
    s[v].max = std::max(s[v].max, states[v].max);
  }
}

void GroupAggTable::MergeFrom(const GroupAggTable& other) {
  CCDB_CHECK(other.key_width_ == key_width_ &&
             other.num_values_ == num_values_);
  for (size_t g = 0; g < other.num_groups(); ++g) {
    AccumulateGroup(&other.keys_[g * key_width_], other.rows_[g],
                    other.states_.data() + g * num_values_);
  }
}

template GroupAggregates HashGroupSum<DirectMemory, IdentityHash>(
    std::span<const uint32_t>, std::span<const uint32_t>, DirectMemory&,
    size_t);
template GroupAggregates HashGroupSum<SimulatedMemory, IdentityHash>(
    std::span<const uint32_t>, std::span<const uint32_t>, SimulatedMemory&,
    size_t);
template GroupAggregates SortGroupSum<DirectMemory>(std::span<const uint32_t>,
                                                    std::span<const uint32_t>,
                                                    DirectMemory&);
template GroupAggregates SortGroupSum<SimulatedMemory>(
    std::span<const uint32_t>, std::span<const uint32_t>, SimulatedMemory&);

}  // namespace ccdb
