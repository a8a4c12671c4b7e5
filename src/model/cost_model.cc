#include "model/cost_model.h"

#include <cmath>

#include "bat/types.h"

namespace ccdb {

namespace {

constexpr double kTupleBytes = sizeof(Bun);  // 8: the paper's BUN width
// The phash strategies size clusters at 12 bytes/tuple: the 8-byte BUN plus
// 4 bytes of hash table overhead (§3.4.4; the paper's bucket chains, the
// engine's bucket offsets in algo/hash_table.h).
constexpr double kPhashTupleBytes = 12;

}  // namespace

double CostModel::RelLines(uint64_t c, int level) const {
  const CacheGeometry& g = level == 1 ? m_.l1 : m_.l2;
  return static_cast<double>(c) * kTupleBytes / static_cast<double>(g.line_bytes);
}

double CostModel::RelPages(uint64_t c) const {
  return static_cast<double>(c) * kTupleBytes /
         static_cast<double>(m_.tlb.page_bytes);
}

ScanPrediction CostModel::ScanIteration(size_t stride_bytes) const {
  ScanPrediction p;
  p.cpu_ns = m_.cost.wscan_ns;
  double ml1 = std::min(
      static_cast<double>(stride_bytes) / static_cast<double>(m_.l1.line_bytes),
      1.0);
  double ml2 = std::min(
      static_cast<double>(stride_bytes) / static_cast<double>(m_.l2.line_bytes),
      1.0);
  p.l2_ns = ml1 * m_.lat.l2_ns;
  p.mem_ns = ml2 * m_.lat.mem_ns;
  return p;
}

double CostModel::ClusterCacheMisses(double bp_bits, uint64_t c,
                                     int level) const {
  const CacheGeometry& g = level == 1 ? m_.l1 : m_.l2;
  double hp = std::exp2(bp_bits);
  double lines = static_cast<double>(g.lines());
  double base = 2.0 * RelLines(c, level);
  double extra;
  if (hp <= lines) {
    extra = static_cast<double>(c) * hp / lines;
  } else {
    extra = static_cast<double>(c) * (1.0 + std::log2(hp / lines));
  }
  return base + extra;
}

double CostModel::ClusterTlbMisses(double bp_bits, uint64_t c) const {
  double hp = std::exp2(bp_bits);
  double tlb = static_cast<double>(m_.tlb.entries);
  double pages = RelPages(c);
  double base = 2.0 * pages;
  double extra;
  if (hp <= tlb) {
    extra = pages * hp / tlb;
  } else {
    extra = static_cast<double>(c) * (1.0 - tlb / hp);
  }
  return base + extra;
}

ModelPrediction CostModel::Cluster(int passes, int bits, uint64_t c) const {
  ModelPrediction p;
  double bp = static_cast<double>(bits) / passes;
  for (int pass = 0; pass < passes; ++pass) {
    p.cpu_ns += static_cast<double>(c) * m_.cost.wc_ns;
    p.l1_misses += ClusterCacheMisses(bp, c, 1);
    p.l2_misses += ClusterCacheMisses(bp, c, 2);
    p.tlb_misses += ClusterTlbMisses(bp, c);
    // The 2|Re|_Li base term is the pass's sequential read+write sweep.
    p.l2_seq_misses += 2.0 * RelLines(c, 2);
  }
  return p;
}

ModelPrediction CostModel::RadixJoinPhase(int bits, uint64_t c) const {
  return RadixJoinPhaseAsym(bits, c, c);
}

ModelPrediction CostModel::PhashJoinPhase(int bits, uint64_t c) const {
  return PhashJoinPhaseAsym(bits, c, c);
}

ModelPrediction CostModel::RadixJoinPhaseAsym(int bits, uint64_t c_inner,
                                              uint64_t c_probe) const {
  ModelPrediction p;
  double h = std::exp2(bits);
  double ci = static_cast<double>(c_inner);
  double cp = static_cast<double>(c_probe);
  // Inner clusters set the working-set geometry; every probe tuple walks
  // one of them.
  double tuples_per_cluster = ci / h;
  double cluster_bytes = tuples_per_cluster * kTupleBytes;

  // Tr = C * (C/H) * wr + C * w'r + misses.
  p.cpu_ns = cp * tuples_per_cluster * m_.cost.wr_ns + cp * m_.cost.wrp_ns;

  for (int level = 1; level <= 2; ++level) {
    const CacheGeometry& g = level == 1 ? m_.l1 : m_.l2;
    double cl_lines = cluster_bytes / static_cast<double>(g.line_bytes);
    double li_lines = static_cast<double>(g.lines());
    double extra = cl_lines <= li_lines ? cp * (cl_lines / li_lines)
                                        : cp * cl_lines;
    // Sequential: read each relation once at its own size, write a result
    // proportional to the probe side.
    double misses = RelLines(c_inner, level) + 2.0 * RelLines(c_probe, level) +
                    extra;
    if (level == 1) {
      p.l1_misses = misses;
    } else {
      p.l2_misses = misses;
    }
  }
  p.tlb_misses = RelPages(c_inner) + 2.0 * RelPages(c_probe) +
                 cp * cluster_bytes / static_cast<double>(m_.tlb.span_bytes());
  p.l2_seq_misses = RelLines(c_inner, 2) + 2.0 * RelLines(c_probe, 2);
  return p;
}

ModelPrediction CostModel::PhashJoinPhaseAsym(int bits, uint64_t c_inner,
                                              uint64_t c_probe) const {
  ModelPrediction p;
  double h = std::exp2(bits);
  double ci = static_cast<double>(c_inner);
  double cp = static_cast<double>(c_probe);
  // Hash tables are built over inner clusters; build + lookup touches
  // happen once per tuple pair — max(|L|, |R|) of them (= C when
  // symmetric, probe-dominated for FK joins).
  double pairs = std::max(ci, cp);
  double cluster_bytes = ci / h * kPhashTupleBytes;

  // Th = C * wh + H * w'h + misses.
  p.cpu_ns = pairs * m_.cost.wh_ns + h * m_.cost.whp_ns;

  for (int level = 1; level <= 2; ++level) {
    const CacheGeometry& g = level == 1 ? m_.l1 : m_.l2;
    double cache_bytes = static_cast<double>(g.capacity_bytes);
    double extra =
        cluster_bytes <= cache_bytes
            ? pairs * cluster_bytes / cache_bytes
            // Cache trashing: with a bucket-chain length of 4, up to 8
            // memory accesses per tuple during build + lookup, plus two for
            // the tuple itself — the paper's factor 10.
            : pairs * 10.0 * (1.0 - cache_bytes / cluster_bytes);
    double misses = RelLines(c_inner, level) + 2.0 * RelLines(c_probe, level) +
                    extra;
    if (level == 1) {
      p.l1_misses = misses;
    } else {
      p.l2_misses = misses;
    }
  }
  double tlb_bytes = static_cast<double>(m_.tlb.span_bytes());
  double tlb_extra = cluster_bytes <= tlb_bytes
                         ? pairs * cluster_bytes / tlb_bytes
                         : pairs * 10.0 * (1.0 - tlb_bytes / cluster_bytes);
  p.tlb_misses = RelPages(c_inner) + 2.0 * RelPages(c_probe) + tlb_extra;
  p.l2_seq_misses = RelLines(c_inner, 2) + 2.0 * RelLines(c_probe, 2);
  return p;
}

ModelPrediction CostModel::PositionalJoin(uint64_t range, uint64_t c_inner,
                                          uint64_t c_probe) const {
  ModelPrediction p;
  double array_bytes = static_cast<double>(range) * sizeof(uint32_t);
  double accesses = static_cast<double>(c_inner) + static_cast<double>(c_probe);
  // The phash forms with factor 1: an array that fits the level misses in
  // proportion to its share of it, a larger one once per access beyond it.
  auto random_misses = [&](double level_bytes) {
    return array_bytes <= level_bytes
               ? accesses * array_bytes / level_bytes
               : accesses * (1.0 - level_bytes / array_bytes);
  };

  p.cpu_ns = accesses * m_.cost.wc_ns;
  for (int level = 1; level <= 2; ++level) {
    const CacheGeometry& g = level == 1 ? m_.l1 : m_.l2;
    double sequential = array_bytes / static_cast<double>(g.line_bytes) +
                        RelLines(c_inner, level) +
                        2.0 * RelLines(c_probe, level);
    double misses =
        sequential + random_misses(static_cast<double>(g.capacity_bytes));
    if (level == 1) {
      p.l1_misses = misses;
    } else {
      p.l2_misses = misses;
      p.l2_seq_misses = sequential;
    }
  }
  p.tlb_misses = array_bytes / static_cast<double>(m_.tlb.page_bytes) +
                 RelPages(c_inner) + 2.0 * RelPages(c_probe) +
                 random_misses(static_cast<double>(m_.tlb.span_bytes()));
  return p;
}

int CostModel::OptimalPasses(int bits) const {
  if (bits <= 0) return 1;
  int per_pass = Log2Floor(m_.tlb.entries);
  if (per_pass < 1) per_pass = 1;
  return (bits + per_pass - 1) / per_pass;
}

ModelPrediction CostModel::TotalRadixJoin(int bits, uint64_t c) const {
  ModelPrediction p = Cluster(OptimalPasses(bits), bits, c);
  ModelPrediction cluster_r = Cluster(OptimalPasses(bits), bits, c);
  p += cluster_r;
  p += RadixJoinPhase(bits, c);
  return p;
}

ModelPrediction CostModel::TotalPhashJoin(int bits, uint64_t c) const {
  ModelPrediction p = Cluster(OptimalPasses(bits), bits, c);
  ModelPrediction cluster_r = Cluster(OptimalPasses(bits), bits, c);
  p += cluster_r;
  p += PhashJoinPhase(bits, c);
  return p;
}

ModelPrediction CostModel::SimpleHashJoin(uint64_t c) const {
  return PhashJoinPhase(/*bits=*/0, c);
}

int CostModel::BestRadixBits(uint64_t c, int max_bits) const {
  int best = 0;
  double best_ns = TotalRadixJoin(0, c).total_ns(m_.lat);
  for (int b = 1; b <= max_bits; ++b) {
    double ns = TotalRadixJoin(b, c).total_ns(m_.lat);
    if (ns < best_ns) {
      best_ns = ns;
      best = b;
    }
  }
  return best;
}

int CostModel::BestPhashBits(uint64_t c, int max_bits) const {
  int best = 0;
  double best_ns = TotalPhashJoin(0, c).total_ns(m_.lat);
  for (int b = 1; b <= max_bits; ++b) {
    double ns = TotalPhashJoin(b, c).total_ns(m_.lat);
    if (ns < best_ns) {
      best_ns = ns;
      best = b;
    }
  }
  return best;
}

}  // namespace ccdb
