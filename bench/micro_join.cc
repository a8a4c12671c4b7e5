// Join-kernel micro-benchmarks (google-benchmark): clustering throughput
// per pass count, hash table build/probe, the positional probe, sorting
// kernels, grouping.
#include <benchmark/benchmark.h>

#include <span>
#include <unordered_set>
#include <vector>

#include "algo/aggregate.h"
#include "algo/hash_table.h"
#include "algo/join.h"
#include "algo/radix_cluster.h"
#include "algo/radix_sort.h"
#include "util/rng.h"

namespace ccdb {
namespace {

std::vector<Bun> Relation(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bun> v(n);
  for (size_t i = 0; i < n; ++i)
    v[i] = {static_cast<oid_t>(i), rng.NextU32()};
  return v;
}

void BM_RadixCluster(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const int passes = static_cast<int>(state.range(1));
  auto rel = Relation(1 << 20, 5);
  DirectMemory mem;
  for (auto _ : state) {
    auto out = RadixCluster(std::span<const Bun>(rel),
                            RadixClusterOptions{bits, passes, {}}, mem);
    CCDB_CHECK(out.ok());
    benchmark::DoNotOptimize(out->tuples.data());
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_RadixCluster)
    ->Args({6, 1})
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({18, 1})
    ->Args({18, 3});

void BM_HashTableBuild(benchmark::State& state) {
  auto rel = Relation(1 << 18, 6);
  DirectMemory mem;
  for (auto _ : state) {
    BucketChainedHashTable<DirectMemory> t(rel, 0, kDefaultChainLength, mem);
    benchmark::DoNotOptimize(t.bucket_count());
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_HashTableBuild);

// JoinOp's output for a probe: one slot per probe row, spilling past it
// only on duplicate keys (none here).
struct ProbeSink {
  Bun* pos;
  Bun* end;
  std::vector<Bun>* spill;

  void push_back_if(Bun b, bool keep) {
    if (pos != end) {
      *pos = b;
      pos += keep;
    } else if (keep) {
      spill->push_back(b);
    }
  }
};

// ProbeHashTable, the probe loop of every hash join, over a 2^18-tuple
// build with a 2^16-tuple probe stream whose keys hit the build at the
// given percentage (misses are keys absent from the build). Reports
// ns_per_probe.
void BM_ProbeHashTable(benchmark::State& state) {
  const uint64_t hit_pct = static_cast<uint64_t>(state.range(0));
  auto build = Relation(1 << 18, 7);
  std::unordered_set<uint32_t> keys;
  for (const Bun& b : build) keys.insert(b.tail);
  Rng rng(8);
  std::vector<Bun> probe(1 << 16);
  for (size_t i = 0; i < probe.size(); ++i) {
    uint32_t key;
    if (rng.NextBelow(100) < hit_pct) {
      key = build[rng.NextBelow(build.size())].tail;
    } else {
      do key = rng.NextU32(); while (keys.count(key) != 0);
    }
    probe[i] = {static_cast<oid_t>(i), key};
  }
  DirectMemory mem;
  BucketChainedHashTable<DirectMemory> table(build, 0, kDefaultChainLength,
                                             mem);
  std::vector<Bun> region(probe.size());
  std::vector<Bun> spill;
  size_t matches = 0;
  for (auto _ : state) {
    ProbeSink out{region.data(), region.data() + region.size(), &spill};
    spill.clear();
    ProbeHashTable(table, std::span<const Bun>(probe), mem, out);
    matches = static_cast<size_t>(out.pos - region.data()) + spill.size();
    benchmark::DoNotOptimize(region.data());
  }
  state.SetItemsProcessed(state.iterations() * probe.size());
  state.counters["ns_per_probe"] = benchmark::Counter(
      static_cast<double>(probe.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_ProbeHashTable)->Arg(0)->Arg(5)->Arg(30)->Arg(60)->Arg(100);

// JoinOp's output for a probe read in place: match k is lpos[k] (probe
// position) and rpos[k] (build head), one slot per probe row.
struct PositionSink {
  uint32_t* lpos;
  uint32_t* rpos;
  size_t filled = 0;

  void push_back_if(Bun b, bool keep) {
    lpos[filled] = b.head;
    rpos[filled] = b.tail;
    filled += keep;
  }
};

// ProbeSlots, the positional join's probe loop, over 2^19 u32 probe keys
// read in place (a KeyColumn) from a 2^19-key domain of which the given
// percentage has a build head, so that share of the probes match. The
// head array is 2 MiB. Reports ns_per_probe.
void BM_ProbeSlots(benchmark::State& state) {
  const uint64_t built_pct = static_cast<uint64_t>(state.range(0));
  constexpr uint32_t kDomain = 1u << 19;
  Rng rng(9);
  std::vector<uint32_t> slots(kDomain, kNoSlot);
  for (uint32_t key = 0; key < kDomain; ++key) {
    if (rng.NextBelow(100) < built_pct) slots[key] = rng.NextU32() >> 1;
  }
  std::vector<uint32_t> keys(kDomain);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(rng.NextBelow(kDomain));
  const KeyColumn<uint32_t, false> probe{keys.data(), nullptr, keys.size()};
  const KeyDomain domain{.key_min = 0, .key_range = kDomain};
  std::vector<uint32_t> lpos(keys.size()), rpos(keys.size());
  DirectMemory mem;
  size_t matches = 0;
  for (auto _ : state) {
    PositionSink out{lpos.data(), rpos.data()};
    ProbeSlots(slots.data(), domain, probe, mem, out);
    matches = out.filled;
    benchmark::DoNotOptimize(lpos.data());
    benchmark::DoNotOptimize(rpos.data());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.counters["ns_per_probe"] = benchmark::Counter(
      static_cast<double>(keys.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_ProbeSlots)->Arg(2)->Arg(30)->Arg(100);

// ProbeSlots over a 1,000-key domain, every key built (a 4 KB head array,
// below kSlotLookAheadMinBytes, so the loop does not look ahead), reading
// u32 keys through a candidate list that keeps the given percentage of
// 2^21 rows: the shape of star_join's fk_b join, which probes the fact rows
// the fk_a join kept. Reports ns_per_probe.
void BM_ProbeSlotsSmallDomain(benchmark::State& state) {
  const uint64_t kept_pct = static_cast<uint64_t>(state.range(0));
  constexpr uint32_t kDomain = 1000;
  Rng rng(10);
  std::vector<uint32_t> slots(kDomain);
  for (uint32_t& s : slots) s = rng.NextU32() >> 1;
  std::vector<uint32_t> keys(1 << 21);
  std::vector<oid_t> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(kDomain));
    if (rng.NextBelow(100) < kept_pct) rows.push_back(static_cast<oid_t>(i));
  }
  const KeyColumn<uint32_t, true> probe{keys.data(), rows.data(), rows.size()};
  const KeyDomain domain{.key_min = 0, .key_range = kDomain};
  std::vector<uint32_t> lpos(rows.size()), rpos(rows.size());
  DirectMemory mem;
  for (auto _ : state) {
    PositionSink out{lpos.data(), rpos.data()};
    ProbeSlots(slots.data(), domain, probe, mem, out);
    CCDB_CHECK(out.filled == rows.size());
    benchmark::DoNotOptimize(lpos.data());
    benchmark::DoNotOptimize(rpos.data());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
  state.counters["ns_per_probe"] = benchmark::Counter(
      static_cast<double>(rows.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ProbeSlotsSmallDomain)->Arg(10)->Arg(60);

void BM_SimpleHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto l = Relation(n, 9);
  auto r = Relation(n, 10);
  DirectMemory mem;
  for (auto _ : state) {
    auto out = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                             JoinShape{}, mem);
    CCDB_CHECK(out.ok());
    benchmark::DoNotOptimize(out->data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimpleHashJoin)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_PartitionedHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto l = Relation(n, 11);
  auto r = Relation(n, 12);
  DirectMemory mem;
  int bits = std::max(Log2Floor(n) - 8, 0);  // ~256-tuple clusters
  int passes = std::max((bits + 5) / 6, 1);
  for (auto _ : state) {
    auto out = JoinRelations(
        std::span<const Bun>(l), std::span<const Bun>(r),
        {.kernel = JoinKernel::kHash, .bits = bits, .passes = passes}, mem);
    CCDB_CHECK(out.ok());
    benchmark::DoNotOptimize(out->data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionedHashJoin)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_RadixSort(benchmark::State& state) {
  auto rel = Relation(1 << 20, 13);
  DirectMemory mem;
  for (auto _ : state) {
    auto copy = rel;
    RadixSortByTail(std::span<Bun>(copy), mem);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_RadixSort);

void BM_QuickSort(benchmark::State& state) {
  auto rel = Relation(1 << 20, 14);
  DirectMemory mem;
  for (auto _ : state) {
    auto copy = rel;
    QuickSortByTail(std::span<Bun>(copy), mem);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * rel.size());
}
BENCHMARK(BM_QuickSort);

// Times GroupAggTable::AddColumns over 1M rows with one key column per
// entry of `domains` (column c draws from [0, domains[c])) and one value
// column, the table presized for the group count. Each key word is
// multiplied by `scale`: 1 keeps the keys dense, so their bounding box fits
// the slot array and the table indexes groups by position (the direct
// form); the odd constant 2654435761 maps the same groups across the u32
// range, where the table hashes and probes (the hashed form).
void GroupAggTableRun(benchmark::State& state,
                      std::span<const uint32_t> domains, uint32_t scale) {
  const size_t n = 1 << 20;
  const size_t width = domains.size();
  Rng rng(15);
  std::vector<std::vector<uint32_t>> keys(width, std::vector<uint32_t>(n));
  std::vector<uint32_t> vals(n);
  size_t groups = 1;
  for (size_t c = 0; c < width; ++c) groups *= domains[c];
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < width; ++c) {
      keys[c][i] = static_cast<uint32_t>(rng.NextBelow(domains[c])) * scale;
    }
    vals[i] = static_cast<uint32_t>(rng.NextBelow(1000));
  }
  std::vector<const uint32_t*> key_cols;
  for (const auto& k : keys) key_cols.push_back(k.data());
  const uint32_t* val_col = vals.data();
  DirectMemory mem;
  for (auto _ : state) {
    GroupAggTable<DirectMemory> agg(width, /*num_values=*/1, groups);
    agg.AddColumns(key_cols, {&val_col, 1}, 0, n, mem);
    CCDB_CHECK(agg.is_direct() == (scale == 1));
    benchmark::DoNotOptimize(agg.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_GroupAggTable(benchmark::State& state) {
  const uint32_t domain[] = {static_cast<uint32_t>(state.range(0))};
  GroupAggTableRun(state, domain, 1);
}
BENCHMARK(BM_GroupAggTable)->Arg(16)->Arg(1 << 10)->Arg(1 << 16);

void BM_GroupAggTableSparse(benchmark::State& state) {
  const uint32_t domain[] = {static_cast<uint32_t>(state.range(0))};
  GroupAggTableRun(state, domain, 2654435761u);
}
BENCHMARK(BM_GroupAggTableSparse)->Arg(16)->Arg(1 << 10)->Arg(1 << 16);

// Two dense keys, 50 x 10 groups: the shape of star_join's grouping.
void BM_GroupAggTable2Key(benchmark::State& state) {
  const uint32_t domains[] = {50, 10};
  GroupAggTableRun(state, domains, 1);
}
BENCHMARK(BM_GroupAggTable2Key);

void BM_SortGroupSum(benchmark::State& state) {
  const size_t n = 1 << 20;
  Rng rng(16);
  std::vector<uint32_t> keys(n), vals(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(1 << 10));
    vals[i] = static_cast<uint32_t>(rng.NextBelow(1000));
  }
  DirectMemory mem;
  for (auto _ : state) {
    auto agg = SortGroupSum(std::span<const uint32_t>(keys),
                            std::span<const uint32_t>(vals), mem);
    benchmark::DoNotOptimize(agg.keys.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SortGroupSum);

}  // namespace
}  // namespace ccdb

BENCHMARK_MAIN();
