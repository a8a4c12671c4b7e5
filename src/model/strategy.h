// Join strategy selection (§3.4.4): the four named strategies (the
// "diagonals" of Figs. 10-12) plus the empirical optima and the model-driven
// "best" choice the paper's final comparison (Fig. 13) sweeps over, and
// §3.1's positional join for unique build keys over a dense domain. A
// resolved plan runs as the JoinShape ShapeOf gives it, through the join
// driver (algo/join.h).
#ifndef CCDB_MODEL_STRATEGY_H_
#define CCDB_MODEL_STRATEGY_H_

#include <optional>
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
                ///< cluster passes) and radix/phash at B >= 1; with a
                ///< positional domain, the cheaper of that and §3.1's
                ///< positional join
};

const char* JoinStrategyName(JoinStrategy s);

/// Resolved physical plan for one equi-join.
struct JoinPlan {
  JoinStrategy strategy = JoinStrategy::kBest;
  bool use_radix_join = false;  ///< radix-join vs partitioned hash-join
  int bits = 0;
  int passes = 1;
  /// Set when kBest chose §3.1's positional join: the build-key domain
  /// its array of build heads indexes. The other fields then stay at
  /// their defaults (no clustering).
  std::optional<KeyDomain> positional;
  /// Model cost. PlanJoin prices the paper's symmetric join at C (0 for
  /// sort-merge: no model); JoinOp::Open replaces it with
  /// JoinModelPrediction at the actual inner and estimated probe sizes.
  double predicted_ms = 0;
};

/// Computes the radix bits B the named strategy prescribes for cardinality
/// `c` on `profile`'s geometry. Returns 0 bits for the baselines.
int StrategyBits(JoinStrategy s, uint64_t c, const MachineProfile& profile);

/// Resolves a full hash, radix or sort-merge plan: bits via StrategyBits
/// (or model argmin for kBest), passes via CostModel::OptimalPasses,
/// predicted cost via the model (the paper's symmetric |L| = |R| = C
/// formulas). kBest returns a kSimpleHash plan when B = 0, priced as
/// CostModel::SimpleHashJoin, wins the argmin. Without a key domain there
/// is no positional plan.
JoinPlan PlanJoin(JoinStrategy s, uint64_t c, const MachineProfile& profile);

/// Whether a positional join may index build keys over `domain`: its array
/// of 4-byte heads must take no more memory than the stored key column it
/// indexes, `column_rows` uint32 values. This is a feasibility rule, not a
/// knob. Uniqueness is checked when the build is prepared.
inline bool PositionalEligible(const KeyDomain& domain, uint64_t column_rows) {
  return domain.key_range > 0 && domain.key_range <= column_rows;
}

/// Plans a join whose `c_inner` build keys are unique over `domain`, an
/// eligible domain, or nullopt when they are not. kBest keeps the argmin
/// of PlanJoin(kBest, c_inner, profile), then takes the positional plan
/// when CostModel::PositionalJoin prices below JoinModelPrediction of that
/// argmin at c_inner and the estimated probe size `c_probe`. Otherwise,
/// and for every named strategy, the plan is PlanJoin(s, c_inner, profile).
JoinPlan PlanJoin(JoinStrategy s, uint64_t c_inner, uint64_t c_probe,
                  const std::optional<KeyDomain>& domain,
                  const MachineProfile& profile);

/// The shape `plan` runs as. A partitioned hash plan whose bits rounded to
/// 0 runs as the simple-hash baseline does: one table over the whole inner.
inline JoinShape ShapeOf(const JoinPlan& plan) {
  if (plan.positional.has_value()) {
    return {.kernel = JoinKernel::kPositional,
            .bits = 0,
            .passes = 1,
            .domain = *plan.positional};
  }
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
/// n-log-n CPU estimate; a positional plan is CostModel::PositionalJoin
/// over its domain.
ModelPrediction JoinModelPrediction(const CostModel& cm, const JoinPlan& plan,
                                    uint64_t c_inner, uint64_t c_probe);

}  // namespace ccdb

#endif  // CCDB_MODEL_STRATEGY_H_
