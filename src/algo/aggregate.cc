#include "algo/aggregate.h"

#include <algorithm>

namespace ccdb {

namespace {

/// Murmur-folds the key words so multi-column keys spread over the slots
/// even when individual columns are small dense domains. AddColumns folds
/// the same way a column at a time. For one key word this is
/// MurmurHash::Hash(key).
template <class Mem>
uint32_t HashKey(const uint32_t* key, size_t width, Mem& mem) {
  uint32_t h = 0;
  for (size_t k = 0; k < width; ++k) {
    h = MurmurHash::Hash(h ^ mem.Load(&key[k]));
  }
  return h;
}

/// Folds `in` into the accumulator at `acc` (one input row of value x is
/// {x, x, x}): one load and one store.
template <class Mem>
void Fold(GroupAggState* acc, const GroupAggState& in, Mem& mem) {
  GroupAggState s = mem.Load(acc);
  s.sum += in.sum;
  s.min = std::min(s.min, in.min);
  s.max = std::max(s.max, in.max);
  mem.Store(acc, s);
}

}  // namespace

template <class Mem>
GroupAggTable<Mem>::GroupAggTable(size_t key_width, size_t num_values,
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
  shift_ = 32 - Log2Floor(slots);
}

template <class Mem>
template <class KeyAt>
uint32_t GroupAggTable<Mem>::FindOrInsert(uint32_t hash, KeyAt key_at,
                                          Mem& mem) {
  size_t s = Home(hash);
  for (;; s = (s + 1) & mask_) {
    const Slot slot = mem.Load(&slots_[s]);
    if (slot.group == kEmpty) break;
    if (slot.hash != hash) continue;
    const uint32_t* k = &keys_[size_t{slot.group} * key_width_];
    size_t c = 0;
    while (c < key_width_ && mem.Load(&k[c]) == key_at(c)) ++c;
    if (c == key_width_) return slot.group;
  }
  const uint32_t g = static_cast<uint32_t>(rows_.size());
  keys_.resize(keys_.size() + key_width_);
  for (size_t c = 0; c < key_width_; ++c) {
    mem.Store(&keys_[size_t{g} * key_width_ + c], key_at(c));
  }
  rows_.push_back(0);
  states_.resize(states_.size() + num_values_);
  mem.Store(&slots_[s], Slot{hash, g});
  if (rows_.size() * 2 > slots_.size()) Grow(mem);
  return g;
}

template <class Mem>
void GroupAggTable<Mem>::Grow(Mem& mem) {
  ++rehashes_;
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (Slot& slot : slots_) mem.Store(&slot, Slot{0, kEmpty});
  mask_ = static_cast<uint32_t>(slots_.size() - 1);
  --shift_;
  for (const Slot& from : old) {
    const Slot slot = mem.Load(&from);
    if (slot.group == kEmpty) continue;
    size_t s = Home(slot.hash);
    while (mem.Load(&slots_[s]).group != kEmpty) s = (s + 1) & mask_;
    mem.Store(&slots_[s], slot);
  }
}

template <class Mem>
void GroupAggTable<Mem>::Add(const uint32_t* key, const uint32_t* values,
                             Mem& mem) {
  uint32_t g = FindOrInsert(
      HashKey(key, key_width_, mem),
      [key, &mem](size_t c) { return mem.Load(&key[c]); }, mem);
  mem.Update(&rows_[g], uint64_t{1});
  GroupAggState* s = states_.data() + size_t{g} * num_values_;
  for (size_t v = 0; v < num_values_; ++v) {
    const uint32_t x = mem.Load(&values[v]);
    Fold(&s[v], GroupAggState{x, x, x}, mem);
  }
}

template <class Mem>
void GroupAggTable<Mem>::AddColumns(std::span<const uint32_t* const> keys,
                                    std::span<const uint32_t* const> values,
                                    size_t lo, size_t hi, Mem& mem) {
  CCDB_CHECK(keys.size() == key_width_ && values.size() == num_values_);
  // 1024 rows keep the hash and group-id vectors (8 KiB) in L1 beside the
  // group table the §3.2 argument assumes is cache-resident.
  constexpr size_t kBlock = 1024;
  uint32_t hash[kBlock] = {};
  uint32_t group[kBlock] = {};
  for (size_t base = lo; base < hi; base += kBlock) {
    const size_t n = std::min(kBlock, hi - base);
    // The per-row fold of Add, a key column at a time.
    for (size_t c = 0; c < key_width_; ++c) {
      const uint32_t* col = keys[c] + base;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t h = c == 0 ? 0 : mem.Load(&hash[i]);
        mem.Store(&hash[i], MurmurHash::Hash(h ^ mem.Load(&col[i])));
      }
    }
    // Row order: new groups get ids in first-appearance order, as with Add.
    for (size_t i = 0; i < n; ++i) {
      auto key_at = [&keys, &mem, row = base + i](size_t c) {
        return mem.Load(&keys[c][row]);
      };
      mem.Store(&group[i], FindOrInsert(mem.Load(&hash[i]), key_at, mem));
    }
    for (size_t i = 0; i < n; ++i) {
      mem.Update(&rows_[mem.Load(&group[i])], uint64_t{1});
    }
    for (size_t v = 0; v < num_values_; ++v) {
      const uint32_t* col = values[v] + base;
      GroupAggState* states = states_.data() + v;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t x = mem.Load(&col[i]);
        Fold(&states[size_t{mem.Load(&group[i])} * num_values_],
             GroupAggState{x, x, x}, mem);
      }
    }
  }
}

template <class Mem>
void GroupAggTable<Mem>::AccumulateGroup(const uint32_t* key, uint64_t rows,
                                         const GroupAggState* states,
                                         Mem& mem) {
  uint32_t g = FindOrInsert(
      HashKey(key, key_width_, mem),
      [key, &mem](size_t c) { return mem.Load(&key[c]); }, mem);
  mem.Update(&rows_[g], rows);
  GroupAggState* s = states_.data() + size_t{g} * num_values_;
  for (size_t v = 0; v < num_values_; ++v) {
    Fold(&s[v], mem.Load(&states[v]), mem);
  }
}

template <class Mem>
void GroupAggTable<Mem>::MergeFrom(const GroupAggTable& other, Mem& mem) {
  CCDB_CHECK(other.key_width_ == key_width_ &&
             other.num_values_ == num_values_);
  for (size_t g = 0; g < other.num_groups(); ++g) {
    AccumulateGroup(&other.keys_[g * key_width_], mem.Load(&other.rows_[g]),
                    other.states_.data() + g * num_values_, mem);
  }
}

template class GroupAggTable<DirectMemory>;
template class GroupAggTable<SimulatedMemory>;

template GroupAggregates SortGroupSum<DirectMemory>(std::span<const uint32_t>,
                                                    std::span<const uint32_t>,
                                                    DirectMemory&);
template GroupAggregates SortGroupSum<SimulatedMemory>(
    std::span<const uint32_t>, std::span<const uint32_t>, SimulatedMemory&);

}  // namespace ccdb
