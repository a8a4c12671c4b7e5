// Integration of algorithms with the memory-hierarchy simulator: runs the
// paper's kernels through SimulatedMemory on the Origin2000 profile and
// checks the counted misses against the closed-form expectations of §2 and
// §3.4 — the software stand-in for the paper's R10000 hardware counters.
#include <gtest/gtest.h>

#include "algo/aggregate.h"
#include "algo/join.h"
#include "algo/radix_cluster.h"
#include "algo/stride_scan.h"
#include "mem/access.h"
#include "model/cost_model.h"
#include "model/strategy.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace ccdb {
namespace {

std::vector<Bun> UniqueRelation(size_t n, uint64_t seed, oid_t base = 0) {
  auto values = UniqueU32(n, seed);
  std::vector<Bun> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = {static_cast<oid_t>(base + i), values[i]};
  return out;
}

class SimTest : public ::testing::Test {
 protected:
  MachineProfile profile_ = MachineProfile::Origin2000();
};

TEST_F(SimTest, StrideScanMissRatesMatchSection2Model) {
  // The §2 model: ML1(s) = min(s/32, 1), ML2(s) = min(s/128, 1) per
  // iteration. Verify at strides below, at, and above the line sizes.
  constexpr size_t kIters = 4096;
  struct Case {
    size_t stride;
    double ml1, ml2;
  } cases[] = {
      {8, 8.0 / 32, 8.0 / 128},  {32, 1.0, 32.0 / 128},
      {64, 1.0, 0.5},            {128, 1.0, 1.0},
      {256, 1.0, 1.0},
  };
  for (const Case& c : cases) {
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    AlignedBuffer buf(kIters * c.stride, 4096);
    StrideScanSum(buf.data(), buf.size(), c.stride, kIters, mem);
    MemEvents ev = h.events();
    EXPECT_NEAR(static_cast<double>(ev.l1_misses) / kIters, c.ml1, 0.01)
        << "stride " << c.stride;
    EXPECT_NEAR(static_cast<double>(ev.l2_misses) / kIters, c.ml2, 0.01)
        << "stride " << c.stride;
  }
}

TEST_F(SimTest, StrideScanPredictedTimePlateaus) {
  // Predicted stall time (events x latencies) reproduces the Fig. 3 shape:
  // flat-ish below L1 line, plateau above L2 line.
  constexpr size_t kIters = 2048;
  auto stall_at = [&](size_t stride) {
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    AlignedBuffer buf(kIters * stride, 4096);
    StrideScanSum(buf.data(), buf.size(), stride, kIters, mem);
    return h.events().StallNanos(profile_.lat);
  };
  double s1 = stall_at(1), s8 = stall_at(8), s128 = stall_at(128),
         s200 = stall_at(200), s256 = stall_at(256);
  EXPECT_LT(s1, s8);
  EXPECT_LT(s8, s128);
  // Plateau: past the L2 line size time stays flat (±TLB noise).
  EXPECT_NEAR(s200 / s128, 1.0, 0.15);
  EXPECT_NEAR(s256 / s128, 1.0, 0.15);
}

TEST_F(SimTest, ClusterTlbMissesExplodeBeyondTlbEntries) {
  // §3.4.2 via simulation: with Hp clusters > 64 TLB entries, almost every
  // scatter write TLB-misses; the paper's model predicts C*(1 - |TLB|/Hp)
  // extra misses. Use C large enough that each cluster spans pages.
  constexpr size_t kC = 1 << 20;  // 8 MB of BUNs
  auto rel = UniqueRelation(kC, 42);

  auto tlb_misses = [&](int bits, int passes) {
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    auto out = RadixCluster(std::span<const Bun>(rel),
                            RadixClusterOptions{bits, passes, {}}, mem);
    CCDB_CHECK(out.ok());
    return h.events().tlb_misses;
  };

  uint64_t at4 = tlb_misses(4, 1);    // 16 clusters: fits TLB easily
  uint64_t at9 = tlb_misses(9, 1);    // 512 clusters: 8x over TLB
  // Model: extra ~= C * (1 - 64/512) = 0.875 * C.
  EXPECT_GT(at9, kC / 2);
  EXPECT_LT(at9, kC * 3 / 2);
  EXPECT_GT(at9, 10 * at4);

  // Two passes of 4-5 bits avoid the explosion entirely.
  uint64_t two_pass = tlb_misses(9, 2);
  EXPECT_LT(two_pass, at9 / 4);
}

TEST_F(SimTest, OnePassTrashingAtTwelveBits) {
  // 12 bits in one pass: 4096 clusters, far beyond both the 1024 L1 lines
  // and the 64 TLB entries. Every scatter write then misses L1 (~1 extra
  // miss/tuple on top of the sequential sweeps) and almost every write
  // misses the TLB; two passes of 6 bits avoid both, at the price of one
  // extra pair of sequential sweeps. The *stall time* verdict is what
  // Fig. 9 plots: one pass loses badly.
  constexpr size_t kC = 1 << 19;
  auto rel = UniqueRelation(kC, 43);
  auto events = [&](int bits, int passes) {
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    auto out = RadixCluster(std::span<const Bun>(rel),
                            RadixClusterOptions{bits, passes, {}}, mem);
    CCDB_CHECK(out.ok());
    return h.events();
  };
  MemEvents one = events(12, 1);
  MemEvents two = events(12, 2);
  // L1: one pass ~ (2 sweeps)*C/4 + C write misses = 1.5C;
  //     two passes ~ 2 * ((2 sweeps)*C/4 + C/4) = 1.5C plus eviction noise.
  EXPECT_GT(one.l1_misses, kC);
  EXPECT_LT(one.l1_misses, kC * 9 / 4);
  // TLB: the 1-pass explosion (paper: C * (1 - |TLB|/Hp) ~ 0.98C extra).
  EXPECT_GT(one.tlb_misses, kC / 2);
  EXPECT_LT(two.tlb_misses, kC / 8);
  // Total memory stall: one pass substantially worse (Fig. 9's verdict).
  EXPECT_GT(one.StallNanos(profile_.lat), 1.5 * two.StallNanos(profile_.lat));
}

TEST_F(SimTest, MultiPassTradesSequentialSweepsForLocality) {
  // Each pass re-reads and re-writes the relation: the *minimum* miss count
  // grows linearly with P (the model's 2*|Re|_Li term per pass). For small
  // B where one pass is cache-friendly, more passes only add sweeps.
  constexpr size_t kC = 1 << 18;
  auto rel = UniqueRelation(kC, 44);
  auto l2_misses = [&](int passes) {
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    auto out = RadixCluster(std::span<const Bun>(rel),
                            RadixClusterOptions{4, passes, {}}, mem);
    CCDB_CHECK(out.ok());
    return h.events().l2_misses;
  };
  uint64_t one = l2_misses(1);
  uint64_t two = l2_misses(2);
  uint64_t four = l2_misses(4);
  EXPECT_GT(two, one);
  EXPECT_GT(four, two);
  // Roughly linear growth in sweeps (generous tolerance: L2 reuse between
  // passes and randomized frame placement add noise).
  EXPECT_NEAR(static_cast<double>(four) / one, 4.0, 2.0);
}

TEST_F(SimTest, SimpleHashJoinTrashesCachesAtScale) {
  // Inner + hash table >> L2: most probes cause L2 misses (§3.2's
  // "performance problem ... due to the random access pattern").
  constexpr size_t kC = 1 << 19;  // 4 MB BUNs + table: beyond 4 MB L2
  auto l = UniqueRelation(kC, 45);
  auto values = UniqueU32(kC, 45);  // same values -> hit rate 1
  Rng rng(9);
  Shuffle(values, rng);
  std::vector<Bun> r(kC);
  for (size_t i = 0; i < kC; ++i)
    r[i] = {static_cast<oid_t>(1 << 24 | i), values[i]};

  MemoryHierarchy h(profile_);
  SimulatedMemory mem(&h);
  auto out = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                           JoinShape{}, mem);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), kC);
  MemEvents ev = h.events();
  // At least one L1 miss per probe on average (chain walks + tuple loads).
  EXPECT_GT(ev.l1_misses, kC);
  EXPECT_GT(ev.tlb_misses, kC / 4);
}

TEST_F(SimTest, PartitionedHashJoinRemovesTheTrashing) {
  // The flagship claim (§3.3/Fig. 11-13): clustering first makes the join
  // phase cache-friendly. Compare join-phase misses of simple hash vs
  // phash with clusters sized for L1.
  constexpr size_t kC = 1 << 18;
  auto values = UniqueU32(kC, 46);
  std::vector<Bun> l(kC), r(kC);
  for (size_t i = 0; i < kC; ++i) l[i] = {static_cast<oid_t>(i), values[i]};
  Rng rng(10);
  Shuffle(values, rng);
  for (size_t i = 0; i < kC; ++i)
    r[i] = {static_cast<oid_t>(500000 + i), values[i]};

  // Simple hash join misses.
  MemoryHierarchy h_simple(profile_);
  SimulatedMemory mem_simple(&h_simple);
  auto out1 = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                            JoinShape{}, mem_simple);
  ASSERT_TRUE(out1.ok());
  EXPECT_EQ(out1->size(), kC);

  // Cluster both (uncounted: DirectMemory), then measure the join phase.
  int bits = StrategyBits(JoinStrategy::kPhashL1, kC, profile_);
  DirectMemory direct;
  auto cl = RadixCluster(std::span<const Bun>(l),
                         RadixClusterOptions{bits, 2, {}}, direct);
  auto cr = RadixCluster(std::span<const Bun>(r),
                         RadixClusterOptions{bits, 2, {}}, direct);
  ASSERT_TRUE(cl.ok() && cr.ok());
  MemoryHierarchy h_phash(profile_);
  SimulatedMemory mem_phash(&h_phash);
  JoinBuild<SimulatedMemory> build;
  ASSERT_TRUE(build
                  .Prepare(*std::move(cr),
                           {.kernel = JoinKernel::kHash, .bits = bits,
                            .passes = 2},
                           mem_phash)
                  .ok());
  std::vector<Bun> out2;
  build.RunAll(cl->tuples, cl->bounds, mem_phash, out2);
  EXPECT_EQ(out2.size(), kC);

  MemEvents simple = h_simple.events();
  MemEvents phash = h_phash.events();
  EXPECT_LT(phash.l2_misses, simple.l2_misses / 2);
  EXPECT_LT(phash.tlb_misses, simple.tlb_misses / 2);
}

TEST_F(SimTest, RadixJoinPhaseMissesDropWithMoreBits) {
  // Fig. 10: join-phase L1 misses explode when clusters exceed L1; fine
  // clusterings keep them near the sequential minimum. The coarse point's
  // 64 KB clusters are twice Origin2000's 32 KB L1, so every inner-cluster
  // rescan misses wherever the buffers land.
  constexpr size_t kC = 1 << 14;
  auto values = UniqueU32(kC, 47);
  std::vector<Bun> l(kC), r(kC);
  for (size_t i = 0; i < kC; ++i) l[i] = {static_cast<oid_t>(i), values[i]};
  Rng rng(11);
  Shuffle(values, rng);
  for (size_t i = 0; i < kC; ++i)
    r[i] = {static_cast<oid_t>(900000 + i), values[i]};

  DirectMemory direct;
  auto misses_at = [&](int bits) {
    auto cl = RadixCluster(std::span<const Bun>(l),
                           RadixClusterOptions{bits, 1, {}}, direct);
    auto cr = RadixCluster(std::span<const Bun>(r),
                           RadixClusterOptions{bits, 1, {}}, direct);
    CCDB_CHECK(cl.ok() && cr.ok());
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    JoinBuild<SimulatedMemory> build;
    CCDB_CHECK(build
                   .Prepare(*std::move(cr),
                            {.kernel = JoinKernel::kNestedLoop, .bits = bits,
                             .passes = 1},
                            mem)
                   .ok());
    std::vector<Bun> out;
    build.RunAll(cl->tuples, cl->bounds, mem, out);
    CCDB_CHECK(out.size() == kC);
    return h.events();
  };
  MemEvents coarse = misses_at(1);   // 8192 tuples/cluster: 64 KB clusters
  MemEvents fine = misses_at(11);    // 8 tuples/cluster
  EXPECT_LT(fine.l1_misses, coarse.l1_misses);
}

TEST_F(SimTest, JoinRelationsUnderSimulatorMatchesDirect) {
  // The memory policy changes what is counted, never what is joined: for
  // every strategy the driver emits the same pairs, in the same order,
  // under SimulatedMemory as under DirectMemory, and the simulator sees
  // the join's loads and stores. The positional shape runs over a build
  // whose keys are a permutation of 0..kC-1.
  constexpr size_t kC = 1 << 13;
  Rng rng(12);
  std::vector<Bun> l(kC), r(kC), r_unique(kC);
  std::vector<uint32_t> perm(kC);
  for (size_t i = 0; i < kC; ++i) {
    l[i] = {static_cast<oid_t>(i),
            static_cast<uint32_t>(rng.NextBelow(kC / 2))};
    r[i] = {static_cast<oid_t>(kC + i),
            static_cast<uint32_t>(rng.NextBelow(kC / 2))};
    perm[i] = static_cast<uint32_t>(i);
  }
  Shuffle(perm, rng);
  for (size_t i = 0; i < kC; ++i) {
    r_unique[i] = {static_cast<oid_t>(kC + i), perm[i]};
  }
  auto expect_same_under_simulator = [&](std::span<const Bun> build,
                                         const JoinShape& shape,
                                         size_t min_rows,
                                         const std::string& label) {
    DirectMemory direct;
    auto expect =
        JoinRelations(std::span<const Bun>(l), build, shape, direct);
    MemoryHierarchy h(profile_);
    SimulatedMemory sim(&h);
    auto got = JoinRelations(std::span<const Bun>(l), build, shape, sim);
    ASSERT_TRUE(expect.ok() && got.ok()) << label;
    EXPECT_GE(expect->size(), min_rows) << label;
    EXPECT_EQ(*got, *expect) << label;
    MemEvents ev = h.events();
    EXPECT_GT(ev.l1_misses, 0u) << label;
    EXPECT_GT(ev.l2_misses, 0u) << label;
    EXPECT_GT(ev.tlb_misses, 0u) << label;
  };
  for (JoinStrategy s : {JoinStrategy::kSortMerge, JoinStrategy::kSimpleHash,
                         JoinStrategy::kPhashL2, JoinStrategy::kPhashTLB,
                         JoinStrategy::kPhashL1, JoinStrategy::kPhash256,
                         JoinStrategy::kPhashMin, JoinStrategy::kRadix8,
                         JoinStrategy::kRadixMin, JoinStrategy::kBest}) {
    expect_same_under_simulator(r, ShapeOf(PlanJoin(s, kC, profile_)), kC + 1,
                                JoinStrategyName(s));
  }
  // Every probe key is below kC / 2, so each finds exactly one build tuple.
  expect_same_under_simulator(
      r_unique,
      {.kernel = JoinKernel::kPositional, .domain = KeyDomainOf(r_unique)},
      kC, "positional shape");
}

TEST_F(SimTest, PositionalJoinMissTermsTrackTheSimulator) {
  // CostModel::PositionalJoin's L2 and TLB terms against the counted
  // misses of the driver's positional join, on GenericX86 (1 MB L2, 64 x
  // 4 KB TLB) with a 2 MB head array: every random access can miss both.
  // The model charges the in-cache share of the array as hits, the rest as
  // one miss per access; the simulator's set-associative L2 and LRU TLB
  // must land within 2x of it.
  const MachineProfile profile = MachineProfile::GenericX86();
  constexpr uint32_t kRange = 1 << 19;  // 2 MB of heads
  constexpr size_t kInner = 1 << 17, kProbe = 1 << 19;
  Rng rng(29);
  std::vector<uint32_t> keys(kRange);
  for (uint32_t i = 0; i < kRange; ++i) keys[i] = i;
  Shuffle(keys, rng);
  std::vector<Bun> r(kInner), l(kProbe);
  for (size_t i = 0; i < kInner; ++i) {
    r[i] = {static_cast<oid_t>(i), keys[i]};
  }
  for (size_t i = 0; i < kProbe; ++i) {
    l[i] = {static_cast<oid_t>(i),
            static_cast<uint32_t>(rng.NextBelow(kRange))};
  }
  MemoryHierarchy h(profile);
  SimulatedMemory mem(&h);
  JoinShape shape{.kernel = JoinKernel::kPositional,
                  .domain = {.key_min = 0, .key_range = kRange}};
  auto out = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                           shape, mem);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->size(), kProbe / 8);  // a quarter of the keys have a build
  MemEvents sim = h.events();
  ModelPrediction model =
      CostModel(profile).PositionalJoin(kRange, kInner, kProbe);
  const double sim_l2 = static_cast<double>(sim.l2_misses);
  const double sim_tlb = static_cast<double>(sim.tlb_misses);
  EXPECT_GT(sim_l2, model.l2_misses / 2);
  EXPECT_LT(sim_l2, model.l2_misses * 2);
  EXPECT_GT(sim_tlb, model.tlb_misses / 2);
  EXPECT_LT(sim_tlb, model.tlb_misses * 2);
}

TEST_F(SimTest, PositionalProbeCountsNoLookAhead) {
  // ProbeSlots over a 256 KB head array, far past kSlotLookAheadMinBytes:
  // the look-ahead runs under DirectMemory only, so the simulator counts
  // exactly one key load and one slot load per probe tuple (two loads, row
  // and key, through a candidate list) and one result store per match.
  constexpr uint32_t kRange = 1 << 16;
  constexpr size_t kProbe = 1 << 12;
  static_assert(kRange * sizeof(uint32_t) > kSlotLookAheadMinBytes);
  Rng rng(31);
  std::vector<uint32_t> slots(kRange, kNoSlot);
  for (uint32_t key = 0; key < kRange; key += 2) slots[key] = key;
  std::vector<uint32_t> keys(kProbe);
  std::vector<oid_t> rows(kProbe);
  std::vector<Bun> tuples(kProbe);
  for (size_t i = 0; i < kProbe; ++i) {
    keys[i] = static_cast<uint32_t>(rng.NextBelow(kRange + 100));
    rows[i] = static_cast<oid_t>(kProbe - 1 - i);
    tuples[i] = {static_cast<oid_t>(i), keys[i]};
  }
  const KeyDomain domain{.key_min = 0, .key_range = kRange};
  // The accesses beyond `loads_per_tuple` per probe tuple and one per match.
  auto extra_accesses = [&](const auto& probe, uint64_t loads_per_tuple) {
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    std::vector<Bun> out;
    out.reserve(kProbe);
    ProbeSlots(slots.data(), domain, probe, mem, out);
    EXPECT_GT(out.size(), kProbe / 4);
    return static_cast<int64_t>(h.events().accesses) -
           static_cast<int64_t>(loads_per_tuple * kProbe + out.size());
  };
  EXPECT_EQ(extra_accesses(std::span<const Bun>(tuples), 2), 0);
  EXPECT_EQ(extra_accesses(
                KeyColumn<uint32_t, false>{keys.data(), nullptr, kProbe}, 2),
            0);
  EXPECT_EQ(extra_accesses(
                KeyColumn<uint32_t, true>{keys.data(), rows.data(), kProbe},
                3),
            0);
}

TEST_F(SimTest, GroupAggTableUnderSimulatorMatchesDirect) {
  // The engine's group table under both policies: the same groups, row
  // counts and states, and on GenericX86 (1 MB L2, 64 x 4 KB TLB) a
  // 256k-group table (~10 MB) misses the L2 and the TLB on most rows while
  // a 64-group one stays resident.
  const MachineProfile profile = MachineProfile::GenericX86();
  constexpr size_t kRows = 1 << 19;
  auto misses_at = [&](uint32_t groups) {
    Rng rng(groups);
    std::vector<uint32_t> keys(kRows), vals(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      keys[i] = static_cast<uint32_t>(rng.NextBelow(groups) * 2654435761u);
      vals[i] = static_cast<uint32_t>(rng.NextU32());
    }
    const uint32_t* key_col = keys.data();
    const uint32_t* val_col = vals.data();
    DirectMemory direct;
    GroupAggTable<DirectMemory> expect(/*key_width=*/1, /*num_values=*/1);
    expect.AddColumns({&key_col, 1}, {&val_col, 1}, 0, kRows, direct);
    MemoryHierarchy h(profile);
    SimulatedMemory sim(&h);
    GroupAggTable<SimulatedMemory> got(/*key_width=*/1, /*num_values=*/1);
    got.AddColumns({&key_col, 1}, {&val_col, 1}, 0, kRows, sim);
    EXPECT_EQ(got.num_groups(), expect.num_groups()) << groups;
    EXPECT_EQ(got.rehash_count(), expect.rehash_count()) << groups;
    for (size_t g = 0; g < expect.num_groups(); ++g) {
      EXPECT_EQ(got.key(g, 0), expect.key(g, 0)) << groups;
      EXPECT_EQ(got.group_rows(g), expect.group_rows(g)) << groups;
      EXPECT_EQ(got.state(g, 0).sum, expect.state(g, 0).sum) << groups;
      EXPECT_EQ(got.state(g, 0).min, expect.state(g, 0).min) << groups;
      EXPECT_EQ(got.state(g, 0).max, expect.state(g, 0).max) << groups;
    }
    return h.events();
  };
  MemEvents small = misses_at(64);
  MemEvents large = misses_at(1 << 18);
  EXPECT_GT(large.l2_misses, small.l2_misses);
  EXPECT_GT(large.tlb_misses, small.tlb_misses);
}

TEST_F(SimTest, EventsScaleLinearlyWithCardinality) {
  // Sanity: doubling C roughly doubles the sequential miss terms of a
  // fixed-B cluster pass.
  auto l2_at = [&](size_t c) {
    auto rel = UniqueRelation(c, 48);
    MemoryHierarchy h(profile_);
    SimulatedMemory mem(&h);
    auto out = RadixCluster(std::span<const Bun>(rel),
                            RadixClusterOptions{4, 1, {}}, mem);
    CCDB_CHECK(out.ok());
    return static_cast<double>(h.events().l2_misses);
  };
  double small = l2_at(1 << 16);
  double big = l2_at(1 << 18);
  // Generous tolerance: the simulator sees real heap addresses, so page
  // alignment of the buffers (ASLR) moves the counts a little run to run.
  EXPECT_GT(big / small, 2.5);
  EXPECT_LT(big / small, 6.0);
}

}  // namespace
}  // namespace ccdb
