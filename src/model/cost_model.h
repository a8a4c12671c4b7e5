// The paper's analytical main-memory cost models (§2 and §3.4), implemented
// exactly as printed: query cost = pure CPU work + cache/TLB miss events
// weighted by the machine's latencies. Rather than "magical cost factors
// obtained by profiling", the models mimic each algorithm's memory access
// pattern and count its miss events (§4).
//
// Notation (all from the paper):
//   C        relation cardinality (8-byte BUNs)
//   B, P, Bp radix bits / passes / bits per pass;  H = 2^B, Hp = 2^Bp
//   |Re|_Li  cache lines per relation      |Re|_Pg  pages per relation
//   |Cl|_Li  cache lines per cluster       ||Cl||   cluster size in bytes
//   |Li|_Li  lines in cache i              ||Li||   cache i size in bytes
//   |TLB|    TLB entries                   ||TLB||  bytes covered by the TLB
#ifndef CCDB_MODEL_COST_MODEL_H_
#define CCDB_MODEL_COST_MODEL_H_

#include <algorithm>

#include "mem/hierarchy.h"
#include "mem/machine.h"
#include "util/status.h"

namespace ccdb {

/// Predicted event counts and time for one operation. Events are real-valued
/// (the model divides), unlike the integer MemEvents of measurements.
struct ModelPrediction {
  double l1_misses = 0;
  double l2_misses = 0;
  double tlb_misses = 0;
  double cpu_ns = 0;
  /// The subset of l2_misses incurred by *sequential* sweeps (the 2|Re|_Li
  /// read+write terms etc.), priced at Latencies::effective_mem_seq_ns()
  /// instead of the full lMem. Always <= l2_misses; with mem_seq_ns unset
  /// the split is cost-neutral, so the paper-profile curves are unchanged.
  double l2_seq_misses = 0;

  double stall_ns(const Latencies& lat) const {
    double seq = std::min(l2_seq_misses, l2_misses);
    return l1_misses * lat.l2_ns + (l2_misses - seq) * lat.mem_ns +
           seq * lat.effective_mem_seq_ns() + tlb_misses * lat.tlb_ns;
  }
  double total_ns(const Latencies& lat) const { return cpu_ns + stall_ns(lat); }

  ModelPrediction& operator+=(const ModelPrediction& o) {
    l1_misses += o.l1_misses;
    l2_misses += o.l2_misses;
    tlb_misses += o.tlb_misses;
    cpu_ns += o.cpu_ns;
    l2_seq_misses += o.l2_seq_misses;
    return *this;
  }
};

/// Per-iteration scan cost decomposition of §2: T(s) = TCPU + TL2(s) + TMem(s).
struct ScanPrediction {
  double cpu_ns = 0;
  double l2_ns = 0;   ///< TL2(s)  = ML1(s) * lL2
  double mem_ns = 0;  ///< TMem(s) = ML2(s) * lMem
  double total_ns() const { return cpu_ns + l2_ns + mem_ns; }
};

/// Evaluates the paper's formulas for one MachineProfile. All predictions
/// are per single operation (one relation clustered, one join phase, ...).
class CostModel {
 public:
  explicit CostModel(const MachineProfile& profile) : m_(profile) {}

  const MachineProfile& profile() const { return m_; }

  // -- §2: sequential scan with stride --------------------------------------

  /// Per-iteration cost of the Figure 3 experiment at record width `stride`:
  /// ML1(s) = min(s/LS_L1, 1), ML2(s) = min(s/LS_L2, 1).
  ScanPrediction ScanIteration(size_t stride_bytes) const;

  // -- §3.4.2: radix-cluster Tc(P, B, C) ------------------------------------

  /// Miss terms of one clustering pass on Bp bits (real-valued Bp = B/P as
  /// the paper evaluates it).
  double ClusterCacheMisses(double bp_bits, uint64_t c, int level) const;
  double ClusterTlbMisses(double bp_bits, uint64_t c) const;

  /// Full Tc(P,B,C).
  ModelPrediction Cluster(int passes, int bits, uint64_t c) const;

  // -- §3.4.3: isolated join phases -----------------------------------------

  /// Radix-join phase Tr(B,C) (nested loop per cluster pair):
  /// RadixJoinPhaseAsym(B, C, C).
  ModelPrediction RadixJoinPhase(int bits, uint64_t c) const;

  /// Partitioned hash-join phase Th(B,C): PhashJoinPhaseAsym(B, C, C).
  ModelPrediction PhashJoinPhase(int bits, uint64_t c) const;

  // -- asymmetric-cardinality extension ---------------------------------------
  // The paper evaluates its join phases at |L| = |R| = C; the planner's
  // cardinality estimator routinely predicts joins with very different
  // probe and inner sizes (a filtered dimension against a fact table).
  // These variants keep the paper's structure but separate the roles: the
  // cluster/hash-table *geometry* comes from the inner relation (its
  // clusters are what must fit a cache level), per-pair work and random
  // re-access counts scale with max(|L|, |R|), and the sequential terms
  // read each relation at its own size. At c_inner == c_probe they are the
  // paper's RadixJoinPhase / PhashJoinPhase.

  ModelPrediction RadixJoinPhaseAsym(int bits, uint64_t c_inner,
                                     uint64_t c_probe) const;
  ModelPrediction PhashJoinPhaseAsym(int bits, uint64_t c_inner,
                                     uint64_t c_probe) const;

  // -- §3.1: positional join ------------------------------------------------

  /// A positional join of a `c_inner`-tuple build over a key domain of
  /// `range` values against `c_probe` probe tuples: one sentinel sweep of
  /// the 4*range-byte head array, the sequential reads of both inputs and
  /// the result write, and one random access into the array per build and
  /// per probe tuple. The random accesses take the phash phase's in-cache
  /// and out-of-cache miss forms with factor 1 (one access per tuple, not
  /// the bucket chain's 10), and CPU work is wc per access.
  ModelPrediction PositionalJoin(uint64_t range, uint64_t c_inner,
                                 uint64_t c_probe) const;

  // -- §3.4.4: combined cluster + join --------------------------------------

  /// Number of clustering passes the paper's analysis prescribes for B bits:
  /// at most log2(|TLB|) bits per pass (6 on the Origin2000), so
  /// P = max(1, ceil(B / log2(|TLB|))).
  int OptimalPasses(int bits) const;

  /// Cluster both relations (optimal passes) + join phase.
  ModelPrediction TotalRadixJoin(int bits, uint64_t c) const;
  ModelPrediction TotalPhashJoin(int bits, uint64_t c) const;

  /// Non-partitioned hash join: the phash join phase with B = 0 (one
  /// cluster = the whole relation) and no cluster passes. It is what runs
  /// for B = 0, so PlanJoin(kBest) prices B = 0 with it.
  ModelPrediction SimpleHashJoin(uint64_t c) const;

  /// argmin over B in [0, max_bits] of Total*Join(B, c); returns B. Their
  /// B = 0 still charges two (identity) cluster passes, so it is not
  /// SimpleHashJoin and never wins against it.
  int BestRadixBits(uint64_t c, int max_bits = 27) const;
  int BestPhashBits(uint64_t c, int max_bits = 27) const;

  // -- exchange transfer term (dist/) ---------------------------------------

  /// Cost of moving `bytes` across one exchange edge at `ns_per_byte`
  /// (calibrated copy bandwidth, MeasuredCopyNsPerByte; latency-derived
  /// fallback when the host cannot be measured). The network — today, the
  /// in-process channel — is priced like one more level of the memory
  /// hierarchy. The whole price lands in cpu_ns: end-to-end bandwidth
  /// already folds the miss events in, so adding miss terms on top would
  /// double-count them.
  ModelPrediction Transfer(double bytes, double ns_per_byte) const {
    ModelPrediction p;
    p.cpu_ns = bytes * ns_per_byte;
    return p;
  }

  /// Latency-derived ns-per-byte fallback: one memory access per cache
  /// line of payload.
  double FallbackCopyNsPerByte() const {
    return m_.lat.mem_ns / static_cast<double>(m_.l2.line_bytes);
  }

  // -- translation (page-walk) term -----------------------------------------

  /// Nanoseconds of page-walk stall for `tlb_misses` translations, priced
  /// at the profile's lTLB. With a measured profile this is real geometry
  /// (MeasuredTlbGeometry): entry count bounds the miss count upstream and
  /// walk_ns prices each miss; with a static profile it is the old constant.
  double TranslationNs(double tlb_misses) const {
    return tlb_misses * m_.lat.tlb_ns;
  }

  /// A copy of this model whose TLB pages are `page_bytes` wide — the
  /// huge-page pricing view: ||TLB|| grows by page_bytes/4KB, so RelPages
  /// and every TLB miss term shrink accordingly. Entry count is kept; on
  /// real parts the 2 MB-page TLB is somewhat smaller, so this bounds the
  /// benefit from above (documented simplification, validated by
  /// bench/tlb_pages).
  CostModel WithPageBytes(size_t page_bytes) const {
    MachineProfile m = m_;
    m.tlb.page_bytes = page_bytes;
    return CostModel(m);
  }

  // Convenience: milliseconds of a prediction under this profile.
  double Millis(const ModelPrediction& p) const {
    return p.total_ns(m_.lat) * 1e-6;
  }

 private:
  // Shared helpers (all real-valued, in the paper's units).
  double RelLines(uint64_t c, int level) const;
  double RelPages(uint64_t c) const;

  MachineProfile m_;
};

}  // namespace ccdb

#endif  // CCDB_MODEL_COST_MODEL_H_
