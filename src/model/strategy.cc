#include "model/strategy.h"

#include <algorithm>
#include <cmath>

#include "util/bits.h"

namespace ccdb {

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kSortMerge: return "sort-merge";
    case JoinStrategy::kSimpleHash: return "simple hash";
    case JoinStrategy::kPhashL2: return "phash L2";
    case JoinStrategy::kPhashTLB: return "phash TLB";
    case JoinStrategy::kPhashL1: return "phash L1";
    case JoinStrategy::kPhash256: return "phash 256";
    case JoinStrategy::kPhashMin: return "phash min";
    case JoinStrategy::kRadix8: return "radix 8";
    case JoinStrategy::kRadixMin: return "radix min";
    case JoinStrategy::kBest: return "best";
  }
  return "?";
}

namespace {

// B = ceil(log2(c * bytes_per_tuple / target_bytes)), clamped to [0, 27].
// Rounding up makes the cluster *fit* the target level.
int BitsFor(uint64_t c, double bytes_per_tuple, double target_bytes) {
  double clusters = static_cast<double>(c) * bytes_per_tuple / target_bytes;
  if (clusters <= 1.0) return 0;
  int b = static_cast<int>(std::ceil(std::log2(clusters)));
  return std::min(b, 27);
}

}  // namespace

int StrategyBits(JoinStrategy s, uint64_t c, const MachineProfile& profile) {
  switch (s) {
    case JoinStrategy::kSortMerge:
    case JoinStrategy::kSimpleHash:
      return 0;
    case JoinStrategy::kPhashL2:
      return BitsFor(c, 12, static_cast<double>(profile.l2.capacity_bytes));
    case JoinStrategy::kPhashTLB:
      return BitsFor(c, 12, static_cast<double>(profile.tlb.span_bytes()));
    case JoinStrategy::kPhashL1:
      return BitsFor(c, 12, static_cast<double>(profile.l1.capacity_bytes));
    case JoinStrategy::kPhash256:
      return BitsFor(c, 1, 256);
    case JoinStrategy::kPhashMin:
      return BitsFor(c, 1, 200);
    case JoinStrategy::kRadix8:
      return BitsFor(c, 1, 8);
    case JoinStrategy::kRadixMin:
      return BitsFor(c, 1, 4);
    case JoinStrategy::kBest:
      break;  // resolved by PlanJoin via the model
  }
  return 0;
}

JoinPlan PlanJoin(JoinStrategy s, uint64_t c, const MachineProfile& profile) {
  CostModel model(profile);
  JoinPlan plan;
  plan.strategy = s;
  switch (s) {
    case JoinStrategy::kSortMerge:
      plan.use_radix_join = false;
      plan.bits = 0;
      plan.passes = 1;
      plan.predicted_ms = 0;
      return plan;
    case JoinStrategy::kSimpleHash:
      plan.use_radix_join = false;
      plan.bits = 0;
      plan.passes = 1;
      plan.predicted_ms = model.Millis(model.SimpleHashJoin(c));
      return plan;
    case JoinStrategy::kRadix8:
    case JoinStrategy::kRadixMin:
      plan.use_radix_join = true;
      plan.bits = StrategyBits(s, c, profile);
      plan.passes = model.OptimalPasses(plan.bits);
      plan.predicted_ms = model.Millis(model.TotalRadixJoin(plan.bits, c));
      return plan;
    case JoinStrategy::kBest: {
      // B = 0 is priced as what runs for it: one table over the whole
      // inner, no cluster passes (Total*Join(0) would charge two).
      int rb = model.BestRadixBits(c);
      int pb = model.BestPhashBits(c);
      double simple_ns = model.SimpleHashJoin(c).total_ns(profile.lat);
      double radix_ns = model.TotalRadixJoin(rb, c).total_ns(profile.lat);
      double phash_ns = model.TotalPhashJoin(pb, c).total_ns(profile.lat);
      if (simple_ns <= std::min(radix_ns, phash_ns)) {
        return PlanJoin(JoinStrategy::kSimpleHash, c, profile);
      }
      plan.use_radix_join = radix_ns < phash_ns;
      plan.bits = plan.use_radix_join ? rb : pb;
      plan.passes = model.OptimalPasses(plan.bits);
      plan.predicted_ms = std::min(radix_ns, phash_ns) * 1e-6;
      return plan;
    }
    default:
      plan.use_radix_join = false;
      plan.bits = StrategyBits(s, c, profile);
      plan.passes = model.OptimalPasses(plan.bits);
      plan.predicted_ms = model.Millis(model.TotalPhashJoin(plan.bits, c));
      return plan;
  }
}

JoinPlan PlanJoin(JoinStrategy s, uint64_t c_inner, uint64_t c_probe,
                  const std::optional<KeyDomain>& domain,
                  const MachineProfile& profile) {
  JoinPlan hash = PlanJoin(s, c_inner, profile);
  if (!domain.has_value() || s != JoinStrategy::kBest) return hash;
  CostModel model(profile);
  JoinPlan positional;
  positional.positional = domain;
  positional.predicted_ms = model.Millis(
      model.PositionalJoin(domain->key_range, c_inner, c_probe));
  return positional.predicted_ms <
                 model.Millis(JoinModelPrediction(model, hash, c_inner, c_probe))
             ? positional
             : hash;
}

ModelPrediction JoinModelPrediction(const CostModel& cm, const JoinPlan& plan,
                                    uint64_t c_inner, uint64_t c_probe) {
  if (plan.positional.has_value()) {
    return cm.PositionalJoin(plan.positional->key_range, c_inner, c_probe);
  }
  if (plan.strategy == JoinStrategy::kSortMerge) {
    ModelPrediction p;
    for (double n :
         {static_cast<double>(c_inner), static_cast<double>(c_probe)}) {
      if (n > 0) {
        p.cpu_ns += n * std::log2(std::max(n, 2.0)) * cm.profile().cost.wscan_ns;
        p.l2_misses += n;  // the sort's random access over the relation
      }
    }
    return p;
  }
  if (!ShapeOf(plan).clusters()) {
    // One table over the whole inner (B = 0 — one cluster), no clustering
    // cost.
    return cm.PhashJoinPhaseAsym(0, c_inner, c_probe);
  }
  ModelPrediction p = cm.Cluster(plan.passes, plan.bits, c_inner);
  p += cm.Cluster(plan.passes, plan.bits, c_probe);
  p += plan.use_radix_join ? cm.RadixJoinPhaseAsym(plan.bits, c_inner, c_probe)
                           : cm.PhashJoinPhaseAsym(plan.bits, c_inner, c_probe);
  return p;
}

}  // namespace ccdb
