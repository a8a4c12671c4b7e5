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
    : key_width_(key_width), num_values_(num_values), box_(key_width) {
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
template <bool kDirect, class KeyAt>
uint32_t GroupAggTable<Mem>::FindOrInsert(uint32_t pos, KeyAt key_at,
                                          Mem& mem) {
  size_t s = kDirect ? pos : pos >> shift_;
  if constexpr (kDirect) {
    // The box offset names the key: its slot holds the group or is free.
    const uint32_t g = mem.Load(&slots_[s].group);
    if (g != kEmpty) return g;
  } else {
    for (;; s = (s + 1) & mask_) {
      const Slot slot = mem.Load(&slots_[s]);
      if (slot.group == kEmpty) break;
      if (slot.pos != pos) continue;
      const uint32_t* k = &keys_[size_t{slot.group} * key_width_];
      size_t c = 0;
      while (c < key_width_ && mem.Load(&k[c]) == key_at(c)) ++c;
      if (c == key_width_) return slot.group;
    }
  }
  const uint32_t g = static_cast<uint32_t>(rows_.size());
  keys_.resize(keys_.size() + key_width_);
  for (size_t c = 0; c < key_width_; ++c) {
    mem.Store(&keys_[size_t{g} * key_width_ + c], key_at(c));
  }
  rows_.push_back(0);
  states_.resize(states_.size() + num_values_);
  mem.Store(&slots_[s], Slot{pos, g});
  if (rows_.size() * 2 > slots_.size()) Grow(mem);
  return g;
}

template <class Mem>
uint32_t GroupAggTable<Mem>::FindOrInsertKey(const uint32_t* key, Mem& mem) {
  const uint32_t pos = Position(key, mem);
  auto key_at = [key, &mem](size_t c) { return mem.Load(&key[c]); };
  return direct_ ? FindOrInsert<true>(pos, key_at, mem)
                 : FindOrInsert<false>(pos, key_at, mem);
}

template <class Mem>
uint32_t GroupAggTable<Mem>::Position(const uint32_t* key, Mem& mem) {
  if (direct_) {
    if (const std::optional<uint32_t> offset = Offset(key, mem)) {
      return *offset;
    }
  } else if (!recheck_) {
    return HashKey(key, key_width_, mem);
  }
  std::vector<uint32_t> k(key_width_);
  for (size_t c = 0; c < key_width_; ++c) k[c] = mem.Load(&key[c]);
  Refit(k, k, mem);
  // Now the key lies in the box, or the table hashes without a re-check.
  return Position(key, mem);
}

template <class Mem>
std::optional<uint32_t> GroupAggTable<Mem>::Offset(const uint32_t* key,
                                                   Mem& mem) const {
  uint32_t offset = 0;
  bool inside = true;
  for (size_t c = 0; c < key_width_; ++c) {
    const BoxRange& r = box_[c];
    const uint32_t d = mem.Load(&key[c]) - r.base;
    inside = inside && d <= r.span;
    offset += d * r.stride;
  }
  if (!inside) return std::nullopt;
  return offset;
}

template <class Mem>
void GroupAggTable<Mem>::Refit(std::span<const uint32_t> lo,
                               std::span<const uint32_t> hi, Mem& mem) {
  const size_t kw = key_width_;
  // Per column, the range [first, last] the box must cover: the new keys'
  // and the stored keys' (bounded by the box in the direct form). 64-bit,
  // as a range may span all 2^32 values.
  std::vector<uint64_t> first(lo.begin(), lo.end());
  std::vector<uint64_t> last(hi.begin(), hi.end());
  if (direct_) {
    for (size_t c = 0; c < kw; ++c) {
      first[c] = std::min<uint64_t>(first[c], box_[c].base);
      last[c] = std::max(last[c], uint64_t{box_[c].base} + box_[c].span);
    }
  } else {
    for (size_t g = 0; g < num_groups(); ++g) {
      for (size_t c = 0; c < kw; ++c) {
        const uint64_t k = mem.Load(&keys_[g * kw + c]);
        first[c] = std::min(first[c], k);
        last[c] = std::max(last[c], k);
      }
    }
  }
  // The box never takes more cells than the slot array has slots.
  const uint64_t limit = std::min<uint64_t>(slots_.size(), kMaxBoxCells);
  std::vector<uint64_t> extent(kw);
  for (size_t c = 0; c < kw; ++c) extent[c] = last[c] - first[c] + 1;
  // Cells of the box over every column but `skip`, saturating past limit.
  auto cells = [&](size_t skip) {
    uint64_t p = 1;
    for (size_t c = 0; c < kw && p <= limit; ++c) {
      if (c != skip) p *= extent[c];
    }
    return std::min(p, limit + 1);
  };
  if (cells(kw) > limit) {
    recheck_ = false;
    if (direct_) {
      direct_ = false;
      Reindex(mem);  // hashes the stored keys once
    }
    return;
  }
  // A growing column of the direct box takes at least twice its old extent
  // where the slot array has room, so refits stay logarithmic.
  for (size_t c = 0; c < kw; ++c) {
    const uint64_t old = uint64_t{box_[c].span} + 1;
    if (direct_ && extent[c] > old) {
      extent[c] = std::min(std::max(extent[c], 2 * old), limit / cells(c));
    }
  }
  uint32_t stride = 1;
  for (size_t c = 0; c < kw; ++c) {
    const uint64_t e = extent[c];
    // The slack goes the way the column grew: below when only downward.
    const bool down = direct_ && first[c] < box_[c].base &&
                      last[c] == uint64_t{box_[c].base} + box_[c].span;
    const uint64_t base = down ? (last[c] + 1 >= e ? last[c] + 1 - e : 0)
                               : std::min(first[c], (uint64_t{1} << 32) - e);
    box_[c] = BoxRange{static_cast<uint32_t>(base),
                       static_cast<uint32_t>(e - 1), stride};
    stride *= static_cast<uint32_t>(e);
  }
  direct_ = true;
  recheck_ = false;
  Reindex(mem);
}

template <class Mem>
void GroupAggTable<Mem>::Reindex(Mem& mem) {
  if (rows_.empty()) return;  // no slot was ever filled
  for (Slot& slot : slots_) mem.Store(&slot, Slot{0, kEmpty});
  for (size_t g = 0; g < num_groups(); ++g) {
    const uint32_t* key = &keys_[g * key_width_];
    Place(direct_ ? *Offset(key, mem) : HashKey(key, key_width_, mem),
          static_cast<uint32_t>(g), mem);
  }
}

template <class Mem>
void GroupAggTable<Mem>::Place(uint32_t pos, uint32_t group, Mem& mem) {
  size_t s = Home(pos);
  while (mem.Load(&slots_[s]).group != kEmpty) s = (s + 1) & mask_;
  mem.Store(&slots_[s], Slot{pos, group});
}

template <class Mem>
void GroupAggTable<Mem>::Grow(Mem& mem) {
  ++rehashes_;
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (Slot& slot : slots_) mem.Store(&slot, Slot{0, kEmpty});
  mask_ = static_cast<uint32_t>(slots_.size() - 1);
  --shift_;
  // Box offsets keep their slots; hashes take their high bits' slots.
  for (const Slot& from : old) {
    const Slot slot = mem.Load(&from);
    if (slot.group != kEmpty) Place(slot.pos, slot.group, mem);
  }
  // The doubled array may hold the keys' box.
  recheck_ = !direct_;
}

template <class Mem>
void GroupAggTable<Mem>::Add(const uint32_t* key, const uint32_t* values,
                             Mem& mem) {
  const uint32_t g = FindOrInsertKey(key, mem);
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
  // 1024 rows keep the position and group-id vectors (8 KiB) in L1 beside
  // the group table the §3.2 argument assumes is cache-resident.
  constexpr size_t kBlock = 1024;
  uint32_t pos[kBlock] = {};
  uint32_t group[kBlock] = {};
  // Box offsets of rows [base, base + n); false if a key lies outside.
  auto box_offsets = [&](size_t base, size_t n) {
    uint32_t outside = 0;
    for (size_t c = 0; c < key_width_; ++c) {
      const BoxRange r = box_[c];
      const uint32_t* col = keys[c] + base;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t d = mem.Load(&col[i]) - r.base;
        outside |= d > r.span;
        const uint32_t p = c == 0 ? 0 : mem.Load(&pos[i]);
        mem.Store(&pos[i], p + d * r.stride);
      }
    }
    return outside == 0;
  };
  for (size_t base = lo; base < hi; base += kBlock) {
    const size_t n = std::min(kBlock, hi - base);
    bool placed = direct_ && box_offsets(base, n);
    if (!placed && (direct_ || recheck_)) {
      // Widen the box by the block's per-column min/max, or switch forms.
      std::vector<uint32_t> kmin(key_width_, UINT32_MAX), kmax(key_width_, 0);
      for (size_t c = 0; c < key_width_; ++c) {
        const uint32_t* col = keys[c] + base;
        uint32_t mn = UINT32_MAX, mx = 0;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t k = mem.Load(&col[i]);
          mn = std::min(mn, k);
          mx = std::max(mx, k);
        }
        kmin[c] = mn;
        kmax[c] = mx;
      }
      Refit(kmin, kmax, mem);
      placed = direct_ && box_offsets(base, n);
    }
    if (!placed) {
      // The per-row hash of Add, a key column at a time.
      for (size_t c = 0; c < key_width_; ++c) {
        const uint32_t* col = keys[c] + base;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t h = c == 0 ? 0 : mem.Load(&pos[i]);
          mem.Store(&pos[i], MurmurHash::Hash(h ^ mem.Load(&col[i])));
        }
      }
    }
    // Row order: new groups get ids in first-appearance order, as with Add.
    // Growth inside the block keeps every position valid and the form.
    auto resolve = [&]<bool kDirect>() {
      for (size_t i = 0; i < n; ++i) {
        auto key_at = [&keys, &mem, row = base + i](size_t c) {
          return mem.Load(&keys[c][row]);
        };
        mem.Store(&group[i],
                  FindOrInsert<kDirect>(mem.Load(&pos[i]), key_at, mem));
      }
    };
    if (placed) {
      resolve.template operator()<true>();
    } else {
      resolve.template operator()<false>();
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
  const uint32_t g = FindOrInsertKey(key, mem);
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
