// Join strategy selection (§3.4.4): the four named strategies (the
// "diagonals" of Figs. 10-12) plus the empirical optima and the model-driven
// "best" choice the paper's final comparison (Fig. 13) sweeps over. A
// resolved plan runs as the JoinShape ShapeOf gives it, through the join
// driver (algo/join.h).
#ifndef CCDB_MODEL_STRATEGY_H_
#define CCDB_MODEL_STRATEGY_H_

#include <string>

#include "algo/join_common.h"
#include "model/cost_model.h"
#include "util/status.h"

namespace ccdb {

enum class JoinStrategy {
  kSortMerge,   ///< sort both, merge (baseline)
  kSimpleHash,  ///< non-partitioned hash join (baseline; kBest's B = 0)
  kPhashL2,     ///< B = log2(C*12 / ||L2||): inner cluster + table fits L2
                ///< (the [SKN94] setting)
  kPhashTLB,    ///< B = log2(C*12 / ||TLB||): cluster spans <= |TLB| pages
  kPhashL1,     ///< B = log2(C*12 / ||L1||): cluster fits L1 (needs
                ///< multi-pass radix-cluster)
  kPhash256,    ///< clusters of ~256 tuples
  kPhashMin,    ///< clusters of ~200 tuples: the paper's empirical optimum
  kRadix8,      ///< radix-join with ~8 tuples per cluster
  kRadixMin,    ///< radix-join with ~4 tuples per cluster (slightly better)
  kBest,        ///< model-driven argmin over B = 0 (simple hash, no
                ///< cluster passes) and radix/phash at B >= 1
};

const char* JoinStrategyName(JoinStrategy s);

/// Resolved physical plan for one equi-join.
struct JoinPlan {
  JoinStrategy strategy = JoinStrategy::kBest;
  bool use_radix_join = false;  ///< radix-join vs partitioned hash-join
  int bits = 0;
  int passes = 1;
  /// Model cost. PlanJoin prices the paper's symmetric join at C (0 for
  /// sort-merge: no model); JoinOp::Open replaces it with
  /// JoinModelPrediction at the actual inner and estimated probe sizes.
  double predicted_ms = 0;
};

/// Computes the radix bits B the named strategy prescribes for cardinality
/// `c` on `profile`'s geometry. Returns 0 bits for the baselines.
int StrategyBits(JoinStrategy s, uint64_t c, const MachineProfile& profile);

/// Resolves a full plan: bits via StrategyBits (or model argmin for kBest),
/// passes via CostModel::OptimalPasses, predicted cost via the model (the
/// paper's symmetric |L| = |R| = C formulas). kBest returns a kSimpleHash
/// plan when B = 0, priced as CostModel::SimpleHashJoin, wins the argmin.
JoinPlan PlanJoin(JoinStrategy s, uint64_t c, const MachineProfile& profile);

/// The shape `plan` runs as. A partitioned hash plan whose bits rounded to
/// 0 runs as the simple-hash baseline does: one table over the whole inner.
inline JoinShape ShapeOf(const JoinPlan& plan) {
  if (plan.strategy == JoinStrategy::kSortMerge) {
    return {.kernel = JoinKernel::kSortMerge, .bits = 0, .passes = 1};
  }
  return {.kernel = plan.use_radix_join ? JoinKernel::kNestedLoop
                                        : JoinKernel::kHash,
          .bits = plan.bits,
          .passes = plan.passes};
}

/// §3.4 prediction of a whole join for a resolved plan, composed for
/// asymmetric cardinalities (the paper's Total* formulas assume
/// |L| = |R| = C): each relation is clustered at its own cardinality and
/// the join phase runs at the probe cardinality (the per-probe-tuple term
/// dominates it). Sort-merge, which the paper does not model, gets an
/// n-log-n CPU estimate.
ModelPrediction JoinModelPrediction(const CostModel& cm, const JoinPlan& plan,
                                    uint64_t c_inner, uint64_t c_probe);

}  // namespace ccdb

#endif  // CCDB_MODEL_STRATEGY_H_
