// Sample collector with exact percentiles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace presto::stats {

/// Accumulates doubles; percentiles computed on demand.
///
/// Memory grows with the stream: every added value is retained, so use it
/// only where the run bounds the stream (one sample per probe interval,
/// pushed segment or elephant) or a figure needs the full CDF. Open-loop
/// and other unbounded streams use stats::DDSketch.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double mean() const {
    if (values_.empty()) return 0;
    double s = 0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

  double min() const {
    return values_.empty()
               ? 0
               : *std::min_element(values_.begin(), values_.end());
  }
  double max() const {
    return values_.empty()
               ? 0
               : *std::max_element(values_.begin(), values_.end());
  }

  /// Linear interpolation on the sorted data. Out-of-range p is clamped to
  /// [0, 100] (NaN behaves like 0), so p=0/p=100 return min/max exactly and
  /// the upper index can never run past the last sample.
  double percentile(double p) const {
    if (values_.empty()) return 0;
    ensure_sorted();
    const double pc = p >= 0 ? (p <= 100.0 ? p : 100.0) : 0.0;
    const double rank =
        pc / 100.0 * (static_cast<double>(values_.size()) - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi =
        std::min(static_cast<std::size_t>(std::ceil(rank)),
                 values_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values_[lo] * (1 - frac) + values_[hi] * frac;
  }

  /// Appends another collector's samples to this one.
  void merge(const Samples& other) {
    for (double v : other.values_) add(v);
  }

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Jain's fairness index over per-flow throughputs (§4): (sum x)^2 / (n * sum x^2).
inline double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0, sum_sq = 0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace presto::stats
