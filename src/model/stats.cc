#include "model/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "exec/table.h"

namespace ccdb {

double ColumnStats::RangeFraction(double lo, double hi, bool integral,
                                  double fallback) const {
  if (!has_range) return fallback;
  if (hi < lo) return 0.0;
  double clo = std::max(lo, min);
  double chi = std::min(hi, max);
  if (chi < clo) return 0.0;
  double span = integral ? (max - min + 1.0) : (max - min);
  double overlap = integral ? (chi - clo + 1.0) : (chi - clo);
  if (span <= 0) return 1.0;  // single-value domain fully covered
  double f = overlap / span;
  return f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f);
}

namespace {

constexpr size_t kRegisters = 256;  // 2^8: HLL standard error ~ 1.04/sqrt(m)

/// Register index = top 8 hash bits; rank = leading-zero run of the rest.
uint8_t HllRank(uint64_t hash) {
  uint64_t rest = hash << 8 | 0x80;  // sentinel bit bounds the run at 56
  uint8_t rank = 1;
  while ((rest & (1ull << 63)) == 0) {
    ++rank;
    rest <<= 1;
  }
  return rank;
}

}  // namespace

void DistinctCounter::Degrade() {
  registers_.assign(kRegisters, 0);
  for (uint64_t h : exact_) {
    size_t reg = h >> 56;
    uint8_t rank = HllRank(h);
    if (rank > registers_[reg]) registers_[reg] = rank;
  }
  exact_.clear();
  sketching_ = true;
}

void DistinctCounter::Add(uint64_t hash) {
  if (!sketching_) {
    exact_.insert(hash);
    if (exact_.size() > kExactLimit) Degrade();
    return;
  }
  size_t reg = hash >> 56;
  uint8_t rank = HllRank(hash);
  if (rank > registers_[reg]) registers_[reg] = rank;
}

uint64_t DistinctCounter::Estimate() const {
  if (!sketching_) return exact_.size();
  // Standard HLL estimate with the small-range (linear counting) and
  // alpha bias corrections for m = 256.
  const double m = static_cast<double>(kRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double sum = 0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double est = alpha * m * m / sum;
  if (est <= 2.5 * m && zeros > 0) {
    est = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<uint64_t>(est + 0.5);
}

StatusOr<ColumnStats> ComputeColumnStats(const Table& table, size_t col) {
  if (col >= table.num_columns()) {
    return Status::InvalidArgument("ComputeColumnStats: column out of range");
  }
  ColumnStats s;
  s.row_count = table.num_rows();
  const Bat& bat = table.column_bat(col);
  const Column& tail = bat.tail();

  if (table.is_encoded(col)) {
    // Dictionary codes: the distinct count is the dictionary size, exactly,
    // and every code in [0, size) occurs (the dictionary only ever interns
    // values of this column's rows, by FromRowStore or AppendRows).
    s.encoded = true;
    s.distinct = table.dict(col).size();
    s.distinct_exact = true;
    if (s.distinct > 0) {
      s.has_range = true;
      s.min = 0;
      s.max = static_cast<double>(s.distinct - 1);
    }
    return s;
  }

  DistinctCounter dc;
  switch (tail.type()) {
    case PhysType::kVoid: {
      // Virtual OIDs: dense ascending — everything is known analytically.
      s.distinct = s.row_count;
      s.distinct_exact = true;
      if (s.row_count > 0) {
        s.has_range = true;
        s.min = static_cast<double>(tail.GetIntegral(0));
        s.max = static_cast<double>(tail.GetIntegral(s.row_count - 1));
      }
      return s;
    }
    case PhysType::kU8:
    case PhysType::kU16:
    case PhysType::kU32:
    case PhysType::kI32: {
      uint64_t mn = UINT64_MAX, mx = 0;
      for (size_t i = 0; i < tail.size(); ++i) {
        uint64_t v = tail.GetIntegral(i);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        dc.Add(DistinctCounter::Mix64(v));
      }
      if (tail.size() > 0) {
        s.has_range = true;
        s.min = static_cast<double>(mn);
        s.max = static_cast<double>(mx);
      }
      break;
    }
    case PhysType::kI64: {
      auto v = tail.Span<int64_t>();
      int64_t mn = INT64_MAX, mx = INT64_MIN;
      for (int64_t x : v) {
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        dc.Add(DistinctCounter::Mix64(static_cast<uint64_t>(x)));
      }
      if (!v.empty()) {
        s.has_range = true;
        s.min = static_cast<double>(mn);
        s.max = static_cast<double>(mx);
      }
      break;
    }
    case PhysType::kF64: {
      auto v = tail.Span<double>();
      double mn = 0, mx = 0;
      bool any = false;
      for (double x : v) {
        if (std::isnan(x)) continue;  // NaN joins no range
        if (!any || x < mn) mn = x;
        if (!any || x > mx) mx = x;
        any = true;
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        dc.Add(DistinctCounter::Mix64(bits));
      }
      if (any) {
        s.has_range = true;
        s.min = mn;
        s.max = mx;
      }
      break;
    }
    case PhysType::kStr: {
      for (size_t i = 0; i < tail.size(); ++i) {
        dc.Add(DistinctCounter::Mix64(Fnv1a(tail.GetStr(i))));
      }
      break;  // no numeric range for raw strings
    }
  }
  s.distinct = dc.Estimate();
  s.distinct_exact = dc.exact();
  return s;
}

}  // namespace ccdb
