// Analytical cost model tests: formula values at hand-computable points
// (using the paper's Origin2000 constants), the knees/crossovers the paper
// describes in §3.4, and the strategy planner.
#include <gtest/gtest.h>

#include "model/cost_model.h"
#include "model/strategy.h"

namespace ccdb {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  MachineProfile m_ = MachineProfile::Origin2000();
  CostModel model_{MachineProfile::Origin2000()};
};

TEST_F(CostModelTest, ScanModelAtKeyStrides) {
  // §2 model: T(s) = TCPU + min(s/LS1,1)*lL2 + min(s/LS2,1)*lMem.
  ScanPrediction s1 = model_.ScanIteration(1);
  EXPECT_DOUBLE_EQ(s1.cpu_ns, 16);
  EXPECT_DOUBLE_EQ(s1.l2_ns, 24.0 / 32);
  EXPECT_DOUBLE_EQ(s1.mem_ns, 412.0 / 128);

  // At the L1 line size (32) the L1 miss rate saturates at 1/iteration.
  ScanPrediction s32 = model_.ScanIteration(32);
  EXPECT_DOUBLE_EQ(s32.l2_ns, 24);
  EXPECT_DOUBLE_EQ(s32.mem_ns, 412.0 / 4);

  // At the L2 line size (128) everything saturates: worst case plateau.
  ScanPrediction s128 = model_.ScanIteration(128);
  EXPECT_DOUBLE_EQ(s128.total_ns(), 16 + 24 + 412);
  // Larger strides cannot get worse (the Fig. 3 plateau).
  EXPECT_DOUBLE_EQ(model_.ScanIteration(256).total_ns(), s128.total_ns());
}

TEST_F(CostModelTest, ScanPlateauToFloorRatioIsLarge) {
  // The paper's headline: ~95% of cycles waiting for memory. At stride 128
  // the 16 ns of CPU work is a small fraction of 452 ns total.
  ScanPrediction worst = model_.ScanIteration(128);
  EXPECT_GT(worst.total_ns() / worst.cpu_ns, 20.0);
}

TEST_F(CostModelTest, ClusterBaseTermsAtSmallBits) {
  // One pass, 1 bit, C=1M: Hp=2 << 1024 L1 lines, so the extra terms are
  // tiny and misses ~ 2 sequential sweeps of the relation.
  constexpr uint64_t kC = 1 << 20;
  ModelPrediction p = model_.Cluster(1, 1, kC);
  double rel_l1_lines = kC * 8.0 / 32;
  double rel_l2_lines = kC * 8.0 / 128;
  EXPECT_NEAR(p.l1_misses, 2 * rel_l1_lines + kC * 2.0 / 1024, 1.0);
  EXPECT_NEAR(p.l2_misses, 2 * rel_l2_lines + kC * 2.0 / 32768, 1.0);
  EXPECT_DOUBLE_EQ(p.cpu_ns, kC * 50.0);
}

TEST_F(CostModelTest, ClusterTlbExplosionBeyondTlbEntries) {
  // §3.4.2: "as the number of clusters exceeds the number of TLB entries
  // (64), the number of TLB misses increases tremendously".
  constexpr uint64_t kC = 8 << 20;
  double at6 = model_.ClusterTlbMisses(6, kC);   // Hp = 64 = |TLB|
  double at10 = model_.ClusterTlbMisses(10, kC); // Hp = 1024
  EXPECT_GT(at10, 50 * at6);
  // And one 10-bit pass costs far more TLB misses than two 5-bit passes.
  ModelPrediction one = model_.Cluster(1, 10, kC);
  ModelPrediction two = model_.Cluster(2, 10, kC);
  EXPECT_GT(one.tlb_misses, 10 * two.tlb_misses);
}

TEST_F(CostModelTest, ClusterPassCrossover) {
  // Fig. 9: up to 6 bits one pass is fastest; beyond, two passes win.
  constexpr uint64_t kC = 8 << 20;
  for (int b = 1; b <= 6; ++b) {
    EXPECT_LT(model_.Millis(model_.Cluster(1, b, kC)),
              model_.Millis(model_.Cluster(2, b, kC)))
        << "bits=" << b;
  }
  for (int b = 8; b <= 12; ++b) {
    EXPECT_GT(model_.Millis(model_.Cluster(1, b, kC)),
              model_.Millis(model_.Cluster(2, b, kC)))
        << "bits=" << b;
  }
}

TEST_F(CostModelTest, OptimalPassesMatchPaperBreakpoints) {
  // 64 TLB entries -> 6 bits per pass: 1 pass to 6 bits, 2 to 12, 3 to 18.
  EXPECT_EQ(model_.OptimalPasses(0), 1);
  EXPECT_EQ(model_.OptimalPasses(6), 1);
  EXPECT_EQ(model_.OptimalPasses(7), 2);
  EXPECT_EQ(model_.OptimalPasses(12), 2);
  EXPECT_EQ(model_.OptimalPasses(13), 3);
  EXPECT_EQ(model_.OptimalPasses(18), 3);
  EXPECT_EQ(model_.OptimalPasses(19), 4);
  EXPECT_EQ(model_.OptimalPasses(20), 4);
}

TEST_F(CostModelTest, BestCaseClusterTimeGrowsWithBits) {
  // Fig. 9, bottom: "the best-case execution time increases with the number
  // of bits used" (more passes, more sweeps).
  constexpr uint64_t kC = 8 << 20;
  auto best_ms = [&](int bits) {
    double best = 1e300;
    for (int p = 1; p <= 4 && p <= std::max(bits, 1); ++p) {
      best = std::min(best, model_.Millis(model_.Cluster(p, bits, kC)));
    }
    return best;
  };
  EXPECT_LT(best_ms(4), best_ms(10));
  EXPECT_LT(best_ms(10), best_ms(16));
  EXPECT_LT(best_ms(16), best_ms(22));
}

TEST_F(CostModelTest, RadixJoinPhaseImprovesWithBits) {
  // Fig. 10: performance improves monotonically with the number of radix
  // bits (down to ~1 tuple per cluster).
  constexpr uint64_t kC = 1 << 20;
  double prev = model_.Millis(model_.RadixJoinPhase(2, kC));
  for (int b = 4; b <= 18; b += 2) {
    double cur = model_.Millis(model_.RadixJoinPhase(b, kC));
    EXPECT_LT(cur, prev) << "bits=" << b;
    prev = cur;
  }
}

TEST_F(CostModelTest, RadixJoinNestedLoopTermDominatesAtFewBits) {
  // With H=1 the model reduces to C^2 * wr + linear terms: astronomically
  // worse than a fine clustering.
  constexpr uint64_t kC = 1 << 20;
  EXPECT_GT(model_.Millis(model_.RadixJoinPhase(0, kC)),
            1000 * model_.Millis(model_.RadixJoinPhase(17, kC)));
}

TEST_F(CostModelTest, PhashJoinPhaseKneeAtCacheFit) {
  constexpr uint64_t kC = 8 << 20;  // 8M tuples, 96 MB at 12 B/tuple
  // Clusters larger than L2 trash (the B range below L2 fit); once the
  // cluster fits L2 the penalty drops sharply.
  int bits_fit_l2 = StrategyBits(JoinStrategy::kPhashL2, kC,
                                 MachineProfile::Origin2000());
  double before = model_.Millis(model_.PhashJoinPhase(bits_fit_l2 - 3, kC));
  double after = model_.Millis(model_.PhashJoinPhase(bits_fit_l2 + 1, kC));
  EXPECT_GT(before, 2 * after);
}

TEST_F(CostModelTest, SimpleHashEqualsPhashAtZeroBits) {
  constexpr uint64_t kC = 1 << 20;
  EXPECT_DOUBLE_EQ(model_.Millis(model_.SimpleHashJoin(kC)),
                   model_.Millis(model_.PhashJoinPhase(0, kC)));
}

TEST_F(CostModelTest, CacheConsciousBeatsBaselinesAtScale) {
  // Fig. 13's message, in model form: at 8M tuples the planned phash join
  // costs several times less than the non-partitioned hash join.
  constexpr uint64_t kC = 8 << 20;
  int best_b = model_.BestPhashBits(kC);
  double phash = model_.Millis(model_.TotalPhashJoin(best_b, kC));
  double simple = model_.Millis(model_.SimpleHashJoin(kC));
  EXPECT_GT(simple, 3 * phash);
}

TEST_F(CostModelTest, BestBitsLandInSaneRange) {
  constexpr uint64_t kC = 8 << 20;
  int rb = model_.BestRadixBits(kC);
  int pb = model_.BestPhashBits(kC);
  // radix wants very fine clusters (~C/8 => ~20 bits at 8M)
  EXPECT_GE(rb, 16);
  EXPECT_LE(rb, 24);
  // phash wants cluster ~ a few hundred tuples => ~13-18 bits at 8M
  EXPECT_GE(pb, 10);
  EXPECT_LE(pb, 20);
}

TEST_F(CostModelTest, TotalsComposeClusterAndJoin) {
  constexpr uint64_t kC = 1 << 20;
  int b = 10;
  ModelPrediction total = model_.TotalPhashJoin(b, kC);
  ModelPrediction parts = model_.Cluster(model_.OptimalPasses(b), b, kC);
  ModelPrediction cluster_r = model_.Cluster(model_.OptimalPasses(b), b, kC);
  parts += cluster_r;
  parts += model_.PhashJoinPhase(b, kC);
  EXPECT_DOUBLE_EQ(total.total_ns(m_.lat), parts.total_ns(m_.lat));
}

TEST(StrategyBitsTest, PaperGeometryValues) {
  MachineProfile m = MachineProfile::Origin2000();
  constexpr uint64_t kC = 8 << 20;  // 8M
  // phash L2: ceil(log2(8M*12 / 4MB)) = ceil(log2(24)) = 5.
  EXPECT_EQ(StrategyBits(JoinStrategy::kPhashL2, kC, m), 5);
  // phash TLB: ||TLB|| = 1 MB -> ceil(log2(96)) = 7.
  EXPECT_EQ(StrategyBits(JoinStrategy::kPhashTLB, kC, m), 7);
  // phash L1: 32 KB -> ceil(log2(3072)) = 12.
  EXPECT_EQ(StrategyBits(JoinStrategy::kPhashL1, kC, m), 12);
  // radix 8: log2(8M/8) = 20.
  EXPECT_EQ(StrategyBits(JoinStrategy::kRadix8, kC, m), 20);
  // radix min: log2(8M/4) = 21.
  EXPECT_EQ(StrategyBits(JoinStrategy::kRadixMin, kC, m), 21);
  // Baselines use no clustering.
  EXPECT_EQ(StrategyBits(JoinStrategy::kSimpleHash, kC, m), 0);
  EXPECT_EQ(StrategyBits(JoinStrategy::kSortMerge, kC, m), 0);
}

TEST(StrategyBitsTest, TinyRelationsNeedNoClustering) {
  MachineProfile m = MachineProfile::Origin2000();
  // 1000 tuples * 12 B fit L1 outright.
  EXPECT_EQ(StrategyBits(JoinStrategy::kPhashL1, 1000, m), 0);
  EXPECT_EQ(StrategyBits(JoinStrategy::kPhashL2, 1000, m), 0);
}

TEST(PlanJoinTest, PlansAreConsistent) {
  MachineProfile m = MachineProfile::Origin2000();
  constexpr uint64_t kC = 1 << 20;
  for (JoinStrategy s :
       {JoinStrategy::kSortMerge, JoinStrategy::kSimpleHash,
        JoinStrategy::kPhashL2, JoinStrategy::kPhashTLB, JoinStrategy::kPhashL1,
        JoinStrategy::kPhash256, JoinStrategy::kPhashMin, JoinStrategy::kRadix8,
        JoinStrategy::kRadixMin, JoinStrategy::kBest}) {
    JoinPlan plan = PlanJoin(s, kC, m);
    EXPECT_EQ(plan.strategy, s);
    EXPECT_GE(plan.bits, 0);
    EXPECT_GE(plan.passes, 1);
    CostModel model(m);
    EXPECT_EQ(plan.passes, model.OptimalPasses(plan.bits)) << JoinStrategyName(s);
    if (s == JoinStrategy::kRadix8 || s == JoinStrategy::kRadixMin) {
      EXPECT_TRUE(plan.use_radix_join);
    }
  }
}

TEST(PlanJoinTest, BestIsNoWorseThanNamedStrategies) {
  MachineProfile m = MachineProfile::Origin2000();
  for (uint64_t c : {uint64_t{62500}, uint64_t{1} << 20, uint64_t{8} << 20}) {
    JoinPlan best = PlanJoin(JoinStrategy::kBest, c, m);
    for (JoinStrategy s : {JoinStrategy::kSimpleHash, JoinStrategy::kPhashL2,
                           JoinStrategy::kPhashTLB, JoinStrategy::kPhashL1,
                           JoinStrategy::kRadix8}) {
      JoinPlan p = PlanJoin(s, c, m);
      EXPECT_LE(best.predicted_ms, p.predicted_ms * 1.0001)
          << "C=" << c << " vs " << JoinStrategyName(s);
    }
  }
}

TEST(PlanJoinTest, BestPicksSimpleHashForCacheSizedInners) {
  // B = 0 is a candidate of the argmin, priced as the plain hash join that
  // runs for it (no cluster passes). On GenericX86 it wins for inners up to
  // about 10k rows; large inners keep the partitioned plan.
  MachineProfile m = MachineProfile::GenericX86();
  CostModel model(m);
  for (uint64_t c : {uint64_t{1000}, uint64_t{10000}}) {
    JoinPlan p = PlanJoin(JoinStrategy::kBest, c, m);
    EXPECT_EQ(p.strategy, JoinStrategy::kSimpleHash) << "C=" << c;
    EXPECT_EQ(p.bits, 0);
    EXPECT_EQ(p.passes, 1);
    EXPECT_FALSE(p.use_radix_join);
    EXPECT_DOUBLE_EQ(p.predicted_ms, model.Millis(model.SimpleHashJoin(c)));
  }
  for (uint64_t c : {uint64_t{300000}, uint64_t{500000}}) {
    JoinPlan p = PlanJoin(JoinStrategy::kBest, c, m);
    EXPECT_EQ(p.strategy, JoinStrategy::kBest) << "C=" << c;
    EXPECT_FALSE(p.use_radix_join);
    EXPECT_EQ(p.bits, 6);
    EXPECT_EQ(p.passes, 1);
  }
}

TEST(PlanJoinTest, StrategyNamesAreStable) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kPhashL2), "phash L2");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kRadix8), "radix 8");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kSortMerge), "sort-merge");
}

}  // namespace
}  // namespace ccdb
