// Join-family correctness: every shape of the join driver (simple hash,
// sort-merge, partitioned hash, radix) must produce the same multiset of
// [OID,OID] pairs as the nested-loop reference, across crafted edge cases
// and a randomized parameter sweep. Also covers the paper's experimental
// setup: unique values, hit rate one, join-index output (§3.4.1), and the
// driver's task list.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "algo/hash_table.h"
#include "algo/join.h"
#include "algo/nested_loop_join.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ccdb {
namespace {

std::vector<Bun> MakeRelation(size_t n, uint64_t seed, uint32_t value_range,
                              oid_t head_base = 0) {
  Rng rng(seed);
  std::vector<Bun> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {static_cast<oid_t>(head_base + i),
              static_cast<uint32_t>(rng.NextBelow(value_range))};
  }
  return out;
}

std::vector<Bun> Canon(std::vector<Bun> v) {
  std::sort(v.begin(), v.end(), [](const Bun& a, const Bun& b) {
    return a.head != b.head ? a.head < b.head : a.tail < b.tail;
  });
  return v;
}

// The build heads the probe step emits for `key`, in emission order.
std::vector<oid_t> Matches(const BucketChainedHashTable<DirectMemory>& t,
                           uint32_t key) {
  DirectMemory mem;
  std::vector<oid_t> hits;
  t.view().Probe(key, mem, [&](Bun b, bool keep) {
    if (keep) hits.push_back(b.head);
  });
  return hits;
}

JoinShape Hash(int bits, int passes) {
  return {.kernel = JoinKernel::kHash, .bits = bits, .passes = passes};
}

JoinShape Radix(int bits, int passes) {
  return {.kernel = JoinKernel::kNestedLoop, .bits = bits, .passes = passes};
}

// Runs every join shape and checks it against nested loop.
void ExpectAllAlgorithmsAgree(std::span<const Bun> l, std::span<const Bun> r,
                              int bits, int passes) {
  DirectMemory mem;
  std::vector<Bun> expect = Canon(NestedLoopJoin(l, r, mem));

  auto shj = JoinRelations(l, r, Hash(0, 1), mem);
  ASSERT_TRUE(shj.ok());
  EXPECT_EQ(Canon(*shj), expect) << "simple hash";

  auto sm = JoinRelations(l, r, {.kernel = JoinKernel::kSortMerge}, mem);
  ASSERT_TRUE(sm.ok());
  EXPECT_EQ(Canon(*sm), expect) << "sort-merge";

  auto ph = JoinRelations(l, r, Hash(bits, passes), mem);
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(Canon(*ph), expect) << "phash bits=" << bits;

  auto rj = JoinRelations(l, r, Radix(bits, passes), mem);
  ASSERT_TRUE(rj.ok());
  EXPECT_EQ(Canon(*rj), expect) << "radix bits=" << bits;
}

TEST(BucketChainedHashTableTest, FindsAllAndOnlyMatches) {
  DirectMemory mem;
  std::vector<Bun> build = {{0, 5}, {1, 9}, {2, 5}, {3, 7}};
  BucketChainedHashTable<DirectMemory> t(build, 0, 4, mem);
  std::vector<oid_t> hits = Matches(t, 5);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<oid_t>{0, 2}));
  EXPECT_TRUE(Matches(t, 8).empty());
}

TEST(BucketChainedHashTableTest, BucketCountFollowsChainTarget) {
  DirectMemory mem;
  std::vector<Bun> build(1000);
  for (uint32_t i = 0; i < 1000; ++i) build[i] = {i, i};
  BucketChainedHashTable<DirectMemory> t(build, 0, 4, mem);
  EXPECT_EQ(t.bucket_count(), 256u);  // next pow2 of 1000/4
  BucketChainedHashTable<DirectMemory> t1(build, 0, 1, mem);
  EXPECT_EQ(t1.bucket_count(), 1024u);
}

TEST(BucketChainedHashTableTest, EmptyBuild) {
  DirectMemory mem;
  std::vector<Bun> none;
  BucketChainedHashTable<DirectMemory> t(none, 0, 4, mem);
  EXPECT_EQ(t.bucket_count(), 1u);
  EXPECT_EQ(t.ChainLength(0), 0u);
  EXPECT_TRUE(Matches(t, 0).empty());
}

TEST(BucketChainedHashTableTest, ShiftSkipsRadixBits) {
  // All values share the low 4 bits; with shift=4 the table must still
  // spread them over buckets (no degenerate chain).
  DirectMemory mem;
  std::vector<Bun> build(256);
  for (uint32_t i = 0; i < 256; ++i) build[i] = {i, (i << 4) | 0x3};
  BucketChainedHashTable<DirectMemory> t(build, 4, 4, mem);
  size_t max_chain = 0;
  for (uint32_t b = 0; b < t.bucket_count(); ++b) {
    max_chain = std::max(max_chain, t.ChainLength(b));
  }
  EXPECT_LE(max_chain, 8u);  // identity hash above the radix bits: even
  EXPECT_EQ(Matches(t, (37u << 4) | 0x3), (std::vector<oid_t>{37}));
  // At the default sizing the distinct keys fill the buckets one apiece;
  // without the shift only the 16 buckets ending in 0x3 are used, 16 deep.
  BucketChainedHashTable<DirectMemory> one(build, 4, kDefaultChainLength, mem);
  ASSERT_EQ(one.bucket_count(), 256u);
  for (uint32_t b = 0; b < 256; ++b) EXPECT_EQ(one.ChainLength(b), 1u) << b;
  BucketChainedHashTable<DirectMemory> flat(build, 0, kDefaultChainLength,
                                            mem);
  EXPECT_EQ(flat.ChainLength(3), 16u);
  EXPECT_EQ(flat.ChainLength(4), 0u);
}

TEST(BucketChainedHashTableTest, DuplicatesComeOutInReverseBuildOrder) {
  // All tuples share one key, hence one bucket: the probe emits them in
  // reverse build order, as the chained table (head insertion) did.
  DirectMemory mem;
  std::vector<Bun> build = {{0, 6}, {1, 3}, {2, 6}, {3, 6}, {4, 1}, {5, 6}};
  BucketChainedHashTable<DirectMemory> t(build, 0, kDefaultChainLength, mem);
  EXPECT_EQ(Matches(t, 6), (std::vector<oid_t>{5, 3, 2, 0}));
}

TEST(BucketChainedHashTableTest, ChainLengthsPartitionTheBuild) {
  // Default sizing: one bucket per tuple, rounded up to a power of two; the
  // bucket runs cover every build tuple exactly once.
  DirectMemory mem;
  Rng rng(12);
  std::vector<Bun> build(1000);
  for (uint32_t i = 0; i < 1000; ++i) {
    build[i] = {i, static_cast<uint32_t>(rng.NextBelow(5000))};
  }
  BucketChainedHashTable<DirectMemory> t(build, 0, kDefaultChainLength, mem);
  ASSERT_EQ(t.bucket_count(), 1024u);
  size_t total = 0;
  for (uint32_t b = 0; b < t.bucket_count(); ++b) {
    size_t expect = 0;
    for (const Bun& x : build) expect += (x.tail & 1023u) == b;
    EXPECT_EQ(t.ChainLength(b), expect) << b;
    total += t.ChainLength(b);
  }
  EXPECT_EQ(total, build.size());
}

// A ProbeHashTable output with push_back_if, shaped like JoinOp's match
// sink: `capacity` slots, then a spill vector. Small capacities make the
// conditional advance reach the end of its region.
struct RegionSink {
  explicit RegionSink(size_t capacity) : region(capacity) {}

  void push_back_if(Bun b, bool keep) {
    if (filled != region.size()) {
      region[filled] = b;
      filled += keep;
    } else if (keep) {
      spill.push_back(b);
    }
  }

  std::vector<Bun> Contents() const {
    std::vector<Bun> all(region.begin(), region.begin() + filled);
    all.insert(all.end(), spill.begin(), spill.end());
    return all;
  }

  std::vector<Bun> region;
  size_t filled = 0;
  std::vector<Bun> spill;
};

// ProbeHashTable over `build` must emit, for each probe row in order, one
// [probe head, build head] pair per build tuple with the probe's key, in
// reverse build order — into a vector and into a match sink of every size
// from empty to one slot per probe row.
void ExpectProbeMatchesReference(std::span<const Bun> build,
                                 std::span<const Bun> probe, int shift) {
  std::map<uint32_t, std::vector<oid_t>> heads;
  for (const Bun& b : build) {
    std::vector<oid_t>& h = heads[b.tail];
    h.insert(h.begin(), b.head);
  }
  std::vector<Bun> expect;
  for (const Bun& p : probe) {
    auto it = heads.find(p.tail);
    if (it == heads.end()) continue;
    for (oid_t h : it->second) expect.push_back({p.head, h});
  }

  DirectMemory mem;
  BucketChainedHashTable<DirectMemory> t(build, shift, kDefaultChainLength,
                                         mem);
  std::vector<Bun> got;
  ProbeHashTable(t, probe, mem, got);
  EXPECT_EQ(got, expect) << "vector, shift=" << shift;
  for (size_t cap : {size_t{0}, probe.size() / 2, probe.size()}) {
    RegionSink sink(cap);
    ProbeHashTable(t, probe, mem, sink);
    EXPECT_EQ(sink.Contents(), expect) << "sink " << cap << ", shift=" << shift;
  }
}

TEST(ProbeHashTableTest, RunLengthsZeroToThree) {
  // Eight tuples, eight buckets (key bits [shift, shift + 3)): bucket 0 is
  // empty, bucket 1 holds one tuple, bucket 2 a duplicate key, bucket 3 a
  // duplicate plus a colliding key, bucket 4 two colliding keys, and the
  // last three buckets are empty.
  const uint32_t base[] = {1, 2, 3, 11, 2, 3, 12, 20};
  for (int shift : {0, 4}) {
    std::vector<Bun> build;
    for (uint32_t i = 0; i < 8; ++i) build.push_back({i, base[i] << shift});
    DirectMemory mem;
    BucketChainedHashTable<DirectMemory> t(build, shift, kDefaultChainLength,
                                           mem);
    ASSERT_EQ(t.bucket_count(), 8u);
    const size_t runs[] = {0, 1, 2, 3, 2, 0, 0, 0};
    for (uint32_t b = 0; b < 8; ++b) EXPECT_EQ(t.ChainLength(b), runs[b]) << b;
    // Every key of 0..31 (hits, misses into empty buckets, misses that
    // collide with a stored key), then the same keys in reverse.
    std::vector<Bun> probe;
    for (uint32_t k = 0; k < 32; ++k) probe.push_back({100 + k, k << shift});
    for (uint32_t k = 32; k-- > 0;) probe.push_back({200 + k, k << shift});
    ExpectProbeMatchesReference(build, probe, shift);
  }
}

TEST(ProbeHashTableTest, EmptyBuildReadsOnlyThePaddingTuple) {
  // The only tuple an empty table has is the padding one, [0, 0]; probing
  // key 0 reads it and must still emit nothing.
  std::vector<Bun> none;
  std::vector<Bun> probe = {{0, 0}, {7, 0}, {8, 1}};
  ExpectProbeMatchesReference(none, probe, 0);
  ExpectProbeMatchesReference(none, probe, 4);
}

TEST(ProbeHashTableTest, LastBucketsEmpty) {
  // Keys 0..4 fill the first five of eight buckets; probes into buckets
  // 5..7 read past the last run.
  std::vector<Bun> build;
  for (uint32_t i = 0; i < 5; ++i) build.push_back({10 + i, i});
  std::vector<Bun> probe;
  for (uint32_t k = 0; k < 16; ++k) probe.push_back({k, k});
  ExpectProbeMatchesReference(build, probe, 0);
}

TEST(ProbeHashTableTest, MaxKeysAndHeads) {
  const uint32_t kMax = UINT32_MAX;
  std::vector<Bun> build = {
      {kMax, kMax}, {0, kMax}, {kMax - 1, 0}, {kMax, kMax - 1}, {5, 3}};
  std::vector<Bun> probe = {
      {kMax, kMax}, {kMax, 0}, {0, kMax - 1}, {kMax, 3}, {1, kMax - 2}};
  ExpectProbeMatchesReference(build, probe, 0);
  ExpectProbeMatchesReference(build, probe, 4);
}

TEST(ProbeHashTableTest, RandomDuplicatesMatchReference) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto build = MakeRelation(300 + 37 * seed, 40 + seed, 256);
    auto probe = MakeRelation(500, 60 + seed, 512, /*head_base=*/1000);
    ExpectProbeMatchesReference(build, probe, 0);
    ExpectProbeMatchesReference(build, probe, 4);
  }
}

TEST(NestedLoopJoinTest, CrossProductOnAllEqual) {
  DirectMemory mem;
  std::vector<Bun> l = {{0, 7}, {1, 7}};
  std::vector<Bun> r = {{10, 7}, {11, 7}, {12, 7}};
  auto out = NestedLoopJoin(std::span<const Bun>(l), std::span<const Bun>(r),
                            mem);
  EXPECT_EQ(out.size(), 6u);
}

TEST(JoinEdgeCases, EmptyInputs) {
  std::vector<Bun> l = {{0, 1}}, empty;
  ExpectAllAlgorithmsAgree(empty, l, 2, 1);
  ExpectAllAlgorithmsAgree(l, empty, 2, 1);
  ExpectAllAlgorithmsAgree(empty, empty, 2, 1);
}

TEST(JoinEdgeCases, NoMatches) {
  std::vector<Bun> l = {{0, 1}, {1, 3}, {2, 5}};
  std::vector<Bun> r = {{0, 2}, {1, 4}, {2, 6}};
  ExpectAllAlgorithmsAgree(l, r, 2, 1);
}

TEST(JoinEdgeCases, AllSameValue) {
  std::vector<Bun> l(8, Bun{0, 42}), r(8, Bun{0, 42});
  for (uint32_t i = 0; i < 8; ++i) {
    l[i].head = i;
    r[i].head = 100 + i;
  }
  ExpectAllAlgorithmsAgree(l, r, 3, 1);  // 64 result pairs
}

TEST(JoinEdgeCases, SkewedZipfLike) {
  // 90% of tuples share one hot value; the rest are unique.
  std::vector<Bun> l, r;
  for (uint32_t i = 0; i < 200; ++i) {
    l.push_back({i, i < 180 ? 7u : 1000 + i});
    r.push_back({500 + i, i < 180 ? 7u : 1000 + i});
  }
  ExpectAllAlgorithmsAgree(l, r, 4, 2);
}

TEST(JoinEdgeCases, DifferentCardinalities) {
  auto l = MakeRelation(97, 11, 64);
  auto r = MakeRelation(311, 12, 64, /*head_base=*/10000);
  ExpectAllAlgorithmsAgree(l, r, 3, 1);
}

TEST(JoinHitRateOne, PaperSetupProducesJoinIndex) {
  // §3.4.1: unique uniformly distributed values, hit rate 1; the result is
  // a perfect 1:1 join index of cardinality C.
  constexpr size_t kC = 4096;
  auto values = UniqueU32(kC, 99);
  std::vector<Bun> l(kC), r(kC);
  for (size_t i = 0; i < kC; ++i) l[i] = {static_cast<oid_t>(i), values[i]};
  // r is a shuffled copy with different OIDs.
  auto shuffled = values;
  Rng rng(7);
  Shuffle(shuffled, rng);
  for (size_t i = 0; i < kC; ++i)
    r[i] = {static_cast<oid_t>(100000 + i), shuffled[i]};

  DirectMemory mem;
  JoinStats stats;
  auto out = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                           Hash(6, 1), mem, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), kC);
  EXPECT_EQ(stats.result_count, kC);
  // Every left OID appears exactly once and maps to the right tuple with
  // the same value.
  std::map<oid_t, oid_t> pairs;
  for (const Bun& b : *out) {
    EXPECT_TRUE(pairs.emplace(b.head, b.tail).second);
  }
  EXPECT_EQ(pairs.size(), kC);
  for (size_t i = 0; i < kC; ++i) {
    oid_t rhs = pairs[static_cast<oid_t>(i)];
    EXPECT_EQ(shuffled[rhs - 100000], values[i]);
  }
}

TEST(JoinStatsTest, PhasesAreFilled) {
  DirectMemory mem;
  auto l = MakeRelation(5000, 21, 5000);
  auto r = MakeRelation(5000, 22, 5000);
  JoinStats stats;
  auto out = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                           Radix(8, 2), mem, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.bits, 8);
  EXPECT_EQ(stats.passes, 2);
  EXPECT_EQ(stats.result_count, out->size());
  EXPECT_GE(stats.cluster_left_ms, 0.0);
  EXPECT_GE(stats.total_ms(), stats.join_ms);
}

TEST(JoinInvalidOptions, PropagateStatus) {
  DirectMemory mem;
  auto l = MakeRelation(10, 1, 10);
  EXPECT_FALSE(JoinRelations(std::span<const Bun>(l),
                             std::span<const Bun>(l), Hash(4, 9), mem)
                   .ok());
  EXPECT_FALSE(JoinRelations(std::span<const Bun>(l),
                             std::span<const Bun>(l), Radix(-2, 1), mem)
                   .ok());
  EXPECT_FALSE(JoinRelations(std::span<const Bun>(l),
                             std::span<const Bun>(l), Hash(-2, 1), mem)
                   .ok());
  // A clustered build must be prepared for the bits it is clustered on.
  auto clustered = RadixCluster(std::span<const Bun>(l),
                                RadixClusterOptions{2, 1, {}}, mem);
  ASSERT_TRUE(clustered.ok());
  JoinBuild<DirectMemory> build;
  EXPECT_EQ(build.Prepare(*clustered, Hash(3, 1), mem).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(build.Prepare(*clustered, {.kernel = JoinKernel::kSortMerge}, mem)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(build.Prepare(*clustered, Radix(2, 1), mem).ok());
}

TEST(JoinWithMurmurHash, MatchesReference) {
  DirectMemory mem;
  auto l = MakeRelation(300, 31, 40);
  auto r = MakeRelation(300, 32, 40);
  std::vector<Bun> expect = Canon(NestedLoopJoin(
      std::span<const Bun>(l), std::span<const Bun>(r), mem));
  auto ph = JoinRelations<DirectMemory, MurmurHash>(
      std::span<const Bun>(l), std::span<const Bun>(r), Hash(4, 2), mem);
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(Canon(*ph), expect);
  auto rj = JoinRelations<DirectMemory, MurmurHash>(
      std::span<const Bun>(l), std::span<const Bun>(r), Radix(4, 2), mem);
  ASSERT_TRUE(rj.ok());
  EXPECT_EQ(Canon(*rj), expect);
}

TEST(JoinTasksTest, PairExactlyTheMatchingNonEmptyClusters) {
  // Radix values (bits = 2): the probe has {0, 1, 2}, the build {1, 2, 3}.
  // Only clusters 1 and 2 are non-empty on both sides, in radix order.
  DirectMemory mem;
  std::vector<Bun> l = {{0, 0}, {1, 4}, {2, 1}, {3, 2}, {4, 6}};
  std::vector<Bun> r = {{0, 1}, {1, 5}, {2, 2}, {3, 3}};
  for (JoinShape shape : {Hash(2, 1), Radix(2, 1), Radix(2, 2)}) {
    JoinBuild<DirectMemory> build;
    ASSERT_TRUE(build.Prepare(r, shape, mem).ok());
    JoinProbe probe;
    ASSERT_TRUE(build.Reorganize(l, mem, &probe).ok());
    std::vector<JoinTask> tasks;
    build.Tasks(probe.clustered.bounds, /*shards=*/4, &tasks);
    ASSERT_EQ(tasks.size(), 2u);
    for (size_t i = 0; i < tasks.size(); ++i) {
      const JoinTask& t = tasks[i];
      EXPECT_EQ(t.part, i + 1);
      EXPECT_EQ(t.lo, probe.clustered.bounds[t.part]);
      EXPECT_EQ(t.hi, probe.clustered.bounds[t.part + 1]);
      for (size_t k = t.lo; k < t.hi; ++k) {
        EXPECT_EQ(probe.tuples[k].tail & 3u, t.part);
      }
    }
    // Cluster 1 holds probe values {1}, cluster 2 holds {2, 6}.
    EXPECT_EQ(tasks[0].hi - tasks[0].lo, 1u);
    EXPECT_EQ(tasks[1].hi - tasks[1].lo, 2u);
    std::vector<Bun> out;
    build.RunAll(probe.tuples, probe.clustered.bounds, mem, out);
    EXPECT_EQ(Canon(out), (std::vector<Bun>{{2, 0}, {3, 2}}));
  }
}

TEST(JoinTasksTest, ZeroBitsGiveOneTask) {
  DirectMemory mem;
  auto l = MakeRelation(50, 9, 40);
  auto r = MakeRelation(60, 10, 40, /*head_base=*/1000);
  for (JoinShape shape : {Hash(0, 1), Radix(0, 1),
                          JoinShape{.kernel = JoinKernel::kSortMerge}}) {
    JoinBuild<DirectMemory> build;
    ASSERT_TRUE(build.Prepare(r, shape, mem).ok());
    JoinProbe probe;
    ASSERT_TRUE(build.Reorganize(l, mem, &probe).ok());
    EXPECT_EQ(probe.clustered.bounds, (std::vector<uint64_t>{0, 50}));
    std::vector<JoinTask> tasks;
    build.Tasks(probe.clustered.bounds, /*shards=*/1, &tasks);
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks[0].lo, 0u);
    EXPECT_EQ(tasks[0].hi, 50u);
    EXPECT_EQ(tasks[0].part, 0u);
  }
  // The B = 0 hash join probes its input as is, in `shards` ranges, and
  // has no task over an empty build.
  JoinBuild<DirectMemory> build;
  ASSERT_TRUE(build.Prepare(r, Hash(0, 1), mem).ok());
  JoinProbe probe;
  ASSERT_TRUE(build.Reorganize(l, mem, &probe).ok());
  EXPECT_EQ(probe.tuples.data(), l.data());
  std::vector<JoinTask> tasks;
  build.Tasks(probe.clustered.bounds, /*shards=*/3, &tasks);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].lo, 0u);
  EXPECT_EQ(tasks[1].lo, tasks[0].hi);
  EXPECT_EQ(tasks[2].lo, tasks[1].hi);
  EXPECT_EQ(tasks[2].hi, 50u);
  std::vector<Bun> none;
  ASSERT_TRUE(build.Prepare(none, Hash(0, 1), mem).ok());
  build.Tasks(probe.clustered.bounds, /*shards=*/3, &tasks);
  EXPECT_TRUE(tasks.empty());
}

TEST(JoinTasksTest, ChunkedParallelProbesBuildEachClusterOnce) {
  // A clustered hash build probed chunk by chunk, each chunk's tasks on a
  // pool: the first chunk reaches clusters 0..6 only, clusters 6 and 10 are
  // probed by two chunks each, and cluster 15 never. The probe is sorted by
  // cluster, keeping row order within one, so the chunk outputs in order are
  // the whole probe's join, byte for byte.
  constexpr int kBits = 4;
  auto r = MakeRelation(6000, 51, 3000, /*head_base=*/100000);
  std::vector<Bun> l;
  for (const Bun& b : MakeRelation(9000, 52, 4000)) {
    if ((b.tail & 15u) != 15u) l.push_back(b);
  }
  std::stable_sort(l.begin(), l.end(), [](const Bun& a, const Bun& b) {
    return (a.tail & 15u) < (b.tail & 15u);
  });
  auto first_of = [&](uint32_t c) {
    return std::find_if(l.begin(), l.end(), [&](const Bun& b) {
             return (b.tail & 15u) == c;
           }) - l.begin();
  };
  const size_t cuts[] = {0, static_cast<size_t>(first_of(6) + 20),
                         static_cast<size_t>(first_of(10) + 20), l.size()};
  ASSERT_LT(cuts[1], static_cast<size_t>(first_of(7)));
  ASSERT_LT(cuts[2], static_cast<size_t>(first_of(11)));
  for (int passes : {1, 2}) {
    DirectMemory mem;
    auto whole = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                               Hash(kBits, passes), mem);
    ASSERT_TRUE(whole.ok());
    ASSERT_GT(whole->size(), 0u);
    for (size_t workers : {1, 2, 8}) {
      ThreadPool pool(workers);
      JoinBuild<DirectMemory> build;
      ASSERT_TRUE(build.Prepare(r, Hash(kBits, passes), mem).ok());
      JoinProbe probe;
      std::vector<Bun> got;
      for (size_t k = 0; k + 1 < std::size(cuts); ++k) {
        std::span<const Bun> chunk(l.data() + cuts[k], cuts[k + 1] - cuts[k]);
        ASSERT_TRUE(build.Reorganize(chunk, mem, &probe).ok());
        std::vector<JoinTask> tasks;
        build.Tasks(probe.clustered.bounds, 1, &tasks);
        if (k == 0) {
          ASSERT_EQ(tasks.size(), 7u);
          EXPECT_EQ(tasks.back().part, 6u);
        }
        std::vector<std::vector<Bun>> outs(tasks.size());
        ASSERT_TRUE(ParallelFor(&pool, workers, tasks.size(), [&](size_t t) {
                      DirectMemory task_mem;
                      build.Run(tasks[t], probe.tuples, task_mem, outs[t]);
                      return Status::Ok();
                    }).ok());
        for (const auto& o : outs) got.insert(got.end(), o.begin(), o.end());
      }
      EXPECT_EQ(got, *whole) << "passes " << passes << ", workers " << workers;
    }
  }
}

JoinShape Positional(KeyDomain domain) {
  return {.kernel = JoinKernel::kPositional, .domain = domain};
}

// The positional join of `l` against `r` over r's own key domain, checked
// against the nested-loop multiset.
void ExpectPositionalMatchesNestedLoop(std::span<const Bun> l,
                                       std::span<const Bun> r) {
  DirectMemory mem;
  auto got = JoinRelations(l, r, Positional(KeyDomainOf(r)), mem);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Canon(*got), Canon(NestedLoopJoin(l, r, mem)));
}

TEST(PositionalJoinTest, MatchesNestedLoopOnDenseUniqueKeys) {
  // Build keys: a permutation of [1000, 1000 + kC). Probe keys run from
  // below key_min to above the domain, with both ends of it.
  constexpr uint32_t kC = 5000, kMin = 1000;
  Rng rng(17);
  std::vector<uint32_t> keys(kC);
  for (uint32_t i = 0; i < kC; ++i) keys[i] = kMin + i;
  Shuffle(keys, rng);
  std::vector<Bun> r(kC);
  for (uint32_t i = 0; i < kC; ++i) r[i] = {50000 + i, keys[i]};
  EXPECT_EQ(KeyDomainOf(r).key_min, kMin);
  EXPECT_EQ(KeyDomainOf(r).key_range, kC);
  std::vector<Bun> l = MakeRelation(20000, 18, kMin + kC + 500);
  l.push_back({20000, 0});
  l.push_back({20001, kMin - 1});
  l.push_back({20002, kMin});
  l.push_back({20003, kMin + kC - 1});
  l.push_back({20004, kMin + kC});
  l.push_back({20005, UINT32_MAX});
  ExpectPositionalMatchesNestedLoop(l, r);

  DirectMemory mem;
  auto ends = JoinRelations(std::span<const Bun>(l).last(6),
                            std::span<const Bun>(r),
                            Positional(KeyDomainOf(r)), mem);
  ASSERT_TRUE(ends.ok());
  ASSERT_EQ(ends->size(), 2u);  // key_min and key_min + kC - 1 only
  EXPECT_EQ(Canon(*ends)[0].head, 20002u);
  EXPECT_EQ(Canon(*ends)[1].head, 20003u);
}

TEST(PositionalJoinTest, EmptyAndOneRowInputs) {
  std::vector<Bun> empty, one = {{7, 42}};
  std::vector<Bun> l = {{0, 41}, {1, 42}, {2, 43}, {3, 42}};
  ExpectPositionalMatchesNestedLoop(l, one);
  ExpectPositionalMatchesNestedLoop(empty, one);
  ExpectPositionalMatchesNestedLoop(l, empty);
  // An empty build over a non-empty domain has no tasks.
  DirectMemory mem;
  JoinBuild<DirectMemory> build;
  ASSERT_TRUE(build.Prepare(empty, Positional({.key_min = 40, .key_range = 8}),
                            mem)
                  .ok());
  JoinProbe probe;
  ASSERT_TRUE(build.Reorganize(l, mem, &probe).ok());
  EXPECT_EQ(probe.tuples.data(), l.data());  // probed as is
  std::vector<JoinTask> tasks;
  build.Tasks(probe.clustered.bounds, /*shards=*/3, &tasks);
  EXPECT_TRUE(tasks.empty());
  // A one-row build splits the probe into `shards` tasks, as B = 0 does.
  ASSERT_TRUE(build.Prepare(one, Positional(KeyDomainOf(one)), mem).ok());
  build.Tasks(probe.clustered.bounds, /*shards=*/3, &tasks);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[2].hi, l.size());
}

TEST(PositionalJoinTest, DomainSpansTheWholeKeyRangeWithoutWrapping) {
  std::vector<Bun> r = {{0, UINT32_MAX}, {1, 0}, {2, 7}};
  KeyDomain d = KeyDomainOf(r);
  EXPECT_EQ(d.key_min, 0u);
  EXPECT_EQ(d.key_range, uint64_t{1} << 32);
  // At the top of the key space: the domain ends at UINT32_MAX, and keys
  // below key_min stay outside it.
  std::vector<Bun> top = {{0, UINT32_MAX}, {1, UINT32_MAX - 3}};
  KeyDomain t = KeyDomainOf(top);
  EXPECT_EQ(t.key_min, UINT32_MAX - 3);
  EXPECT_EQ(t.key_range, 4u);
  std::vector<Bun> l = {{0, UINT32_MAX}, {1, UINT32_MAX - 4}, {2, 0},
                        {3, UINT32_MAX - 3}, {4, UINT32_MAX - 1}};
  ExpectPositionalMatchesNestedLoop(l, top);
  // A domain past UINT32_MAX is rejected.
  DirectMemory mem;
  JoinBuild<DirectMemory> build;
  EXPECT_EQ(build.Prepare(top, Positional({.key_min = t.key_min,
                                           .key_range = 5}),
                          mem)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PositionalJoinTest, RejectsRepeatedAndOutOfDomainBuildKeys) {
  DirectMemory mem;
  JoinBuild<DirectMemory> build;
  std::vector<Bun> repeated = {{0, 3}, {1, 5}, {2, 3}};
  EXPECT_EQ(build.Prepare(repeated, Positional(KeyDomainOf(repeated)), mem)
                .code(),
            StatusCode::kFailedPrecondition);
  std::vector<Bun> r = {{0, 3}, {1, 5}, {2, 9}};
  for (KeyDomain d : {KeyDomain{.key_min = 4, .key_range = 6},
                      KeyDomain{.key_min = 3, .key_range = 6},
                      KeyDomain{.key_min = 3, .key_range = 0}}) {
    EXPECT_EQ(build.Prepare(r, Positional(d), mem).code(),
              StatusCode::kInvalidArgument);
  }
  // Positional builds are never clustered.
  auto clustered = RadixCluster(std::span<const Bun>(r),
                                RadixClusterOptions{1, 1, {}}, mem);
  ASSERT_TRUE(clustered.ok());
  EXPECT_EQ(build.Prepare(*clustered, Positional(KeyDomainOf(r)), mem).code(),
            StatusCode::kInvalidArgument);
}

// The positional probe as a plain scalar loop: [head, slot] for every
// tuple whose key is in the domain and has a build head, in probe order.
std::vector<Bun> ReferenceProbeSlots(const std::vector<uint32_t>& slots,
                                     KeyDomain d,
                                     const std::vector<Bun>& probe) {
  std::vector<Bun> out;
  for (const Bun& t : probe) {
    if (t.tail < d.key_min || t.tail - d.key_min >= d.key_range) continue;
    uint32_t head = slots[t.tail - d.key_min];
    if (head != kNoSlot) out.push_back({t.head, head});
  }
  return out;
}

// ProbeSlots, with and without its look-ahead, against the reference on
// probe keys of width T read as a BUN span, a dense KeyColumn and a
// KeyColumn through a candidate list. The head arrays lie on both sides of
// kSlotLookAheadMinBytes, a third of their slots empty; the probe lengths
// reach below, at and past the look-ahead distance; the keys include ones
// below key_min, past the domain and T's largest value.
template <class T>
void ExpectProbeSlotsMatchesReference() {
  constexpr uint32_t kMin = 100;
  constexpr uint32_t kTop = std::numeric_limits<T>::max();
  for (uint64_t range : {uint64_t{1000}, uint64_t{1} << 14}) {
    const KeyDomain d{.key_min = kMin, .key_range = range};
    EXPECT_EQ(range * sizeof(uint32_t) > kSlotLookAheadMinBytes,
              range == (uint64_t{1} << 14));
    Rng rng(range);
    std::vector<uint32_t> slots(range);
    for (uint32_t& s : slots) {
      s = rng.NextBelow(3) == 0 ? kNoSlot : rng.NextU32() >> 1;
    }
    const uint32_t past = static_cast<uint32_t>(kMin + range);
    const uint32_t specials[] = {0, kMin - 1, kMin, past - 1, past, kTop};
    for (size_t n : {size_t{0}, size_t{1}, kSlotLookAhead - 1, kSlotLookAhead,
                     kSlotLookAhead + 1, size_t{5000}}) {
      SCOPED_TRACE(testing::Message() << "width " << sizeof(T) << ", range "
                                      << range << ", n " << n);
      // Every third key is a special one, so all of them appear from 16
      // tuples on. Column rows 2j and 2j + 1 hold key j; the candidate list
      // picks one of them.
      std::vector<T> keys(2 * n);
      std::vector<oid_t> rows(n);
      std::vector<Bun> tuples(n);
      constexpr oid_t kFirst = 7;
      const uint64_t draw = std::min<uint64_t>(past + 50, uint64_t{kTop} + 1);
      for (size_t j = 0; j < n; ++j) {
        uint32_t key = j % 3 == 0 ? specials[j / 3 % std::size(specials)]
                                  : static_cast<uint32_t>(rng.NextBelow(draw));
        key = std::min(key, kTop);
        keys[2 * j] = keys[2 * j + 1] = static_cast<T>(key);
        rows[j] = static_cast<oid_t>(2 * j + rng.NextBelow(2));
        tuples[j] = {static_cast<oid_t>(kFirst + j), key};
      }
      std::vector<T> dense(n);
      for (size_t j = 0; j < n; ++j) dense[j] = keys[2 * j];
      const std::vector<Bun> expect = ReferenceProbeSlots(slots, d, tuples);
      auto check = [&](const auto& probe, const char* what) {
        DirectMemory mem;
        std::vector<Bun> ahead, plain;
        ProbeSlots(slots.data(), d, probe, mem, ahead);
        ProbeSlots<0>(slots.data(), d, probe, mem, plain);
        EXPECT_EQ(ahead, expect) << what;
        EXPECT_EQ(plain, expect) << what;
      };
      check(std::span<const Bun>(tuples), "BUN span");
      check(KeyColumn<T, false>{dense.data(), nullptr, n, kFirst}, "dense");
      check(KeyColumn<T, true>{keys.data(), rows.data(), n, kFirst},
            "through rows");
    }
  }
}

TEST(PositionalJoinTest, LookAheadProbeMatchesScalarLoopInOrder) {
  ExpectProbeSlotsMatchesReference<uint8_t>();
  ExpectProbeSlotsMatchesReference<uint16_t>();
  ExpectProbeSlotsMatchesReference<uint32_t>();
}

// Randomized sweep over (cardinality, value range, bits, passes): all
// algorithms agree with the reference.
class JoinEquivalenceSweep
    : public ::testing::TestWithParam<
          std::tuple<size_t, uint32_t, int, int>> {};

TEST_P(JoinEquivalenceSweep, AllAlgorithmsAgree) {
  auto [n, range, bits, passes] = GetParam();
  if (passes > std::max(bits, 1)) GTEST_SKIP();
  auto l = MakeRelation(n, 1000 + n + range, range);
  auto r = MakeRelation(n + n / 3, 2000 + n + bits, range, 50000);
  ExpectAllAlgorithmsAgree(l, r, bits, passes);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JoinEquivalenceSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 100, 1500),
                       ::testing::Values<uint32_t>(2, 97, 100000),
                       ::testing::Values(0, 1, 5, 9),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ccdb
