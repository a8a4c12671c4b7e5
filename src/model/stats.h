// Column statistics — the "estimate" half of the planner's
// estimate-decide-verify loop. The paper's cost models (§2, §3.4) price an
// operator *given* its input cardinality; before this subsystem the planner
// only learned cardinalities by draining inputs. ColumnStats summarizes a
// stored column (row/null counts, min-max range, distinct count) cheaply
// enough to compute lazily per Table and cache, so the planner can predict
// selectivities, join output sizes and group counts before running anything
// (model/estimator.h consumes these).
//
// Distinct counting is exact up to a small bound (a hash set), then
// degrades to a HyperLogLog-style sketch (256 registers, ~6.5% standard
// error) — the same "cheap summary, never a second scan" discipline the
// paper applies to memory traffic.
#ifndef CCDB_MODEL_STATS_H_
#define CCDB_MODEL_STATS_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/hash.h"
#include "util/status.h"

namespace ccdb {

class Table;

/// Summary of one stored column. Numeric domains (u32/i64/f64, and the
/// dictionary codes of an encoded string column) carry a min-max range as
/// doubles — exact for u32 codes/values, approximate beyond 2^53, which is
/// fine for selectivity arithmetic. Raw string columns have no range.
struct ColumnStats {
  uint64_t row_count = 0;
  uint64_t null_count = 0;  ///< storage has no null bitmap yet; always 0

  /// Estimated distinct values; `distinct_exact` when it was counted
  /// exactly (small domains, or an encoded column's dictionary size).
  uint64_t distinct = 0;
  bool distinct_exact = false;

  bool has_range = false;  ///< min/max below are valid
  double min = 0;
  double max = 0;

  /// True when the range and distinct count describe the 1-2 byte
  /// dictionary *codes* of an encoded string column (§3.1 predicate remap:
  /// selections run on codes, so estimates should too).
  bool encoded = false;

  /// Fraction of the domain [min, max] a closed value range [lo, hi]
  /// covers, clamped to [0, 1]. Integral domains count lattice points
  /// ((hi-lo+1) / (max-min+1)); continuous ones use length ratio. With no
  /// range (raw strings, empty column) returns `fallback`.
  double RangeFraction(double lo, double hi, bool integral,
                       double fallback) const;
};

/// Streaming distinct-count estimator: exact (hash set) until
/// `kExactLimit` distinct hashes were seen, then a fixed 256-register
/// HyperLogLog over the same 64-bit hashes. Feed pre-hashed values
/// (Mix64 below) so every physical type reduces to the same stream.
class DistinctCounter {
 public:
  static constexpr size_t kExactLimit = 4096;

  void Add(uint64_t hash);
  bool exact() const { return !sketching_; }
  uint64_t Estimate() const;

  /// SplitMix64 (util/hash.h) — the avalanche-quality hash the counter
  /// expects.
  static uint64_t Mix64(uint64_t x) { return SplitMix64(x); }

 private:
  void Degrade();  // exact set -> sketch

  bool sketching_ = false;
  std::unordered_set<uint64_t> exact_;
  std::vector<uint8_t> registers_;  // 256 HLL registers once sketching
};

/// Computes the stats of column `col` with one scan (no allocation beyond
/// the counter). Encoded string columns are summarized over their codes
/// (distinct = dictionary size, exact).
StatusOr<ColumnStats> ComputeColumnStats(const Table& table, size_t col);

}  // namespace ccdb

#endif  // CCDB_MODEL_STATS_H_
