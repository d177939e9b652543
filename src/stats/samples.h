// Sample collector with percentile/CDF reporting.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace presto::stats {

/// Accumulates doubles; percentiles computed on demand.
///
/// Memory grows with the stream: every added value is retained. Collectors
/// that may see unbounded streams (open-loop workloads) should use
/// stats::DDSketch instead; as a backstop, each Samples enforces a hard
/// sample budget (default 4M values, PRESTO_SAMPLES_BUDGET or set_budget()
/// to change): once exceeded, further values are dropped — counted in
/// dropped() — and a warning is printed once per collector.
class Samples {
 public:
  void add(double v) {
    if (values_.size() >= budget_) {
      if (dropped_ == 0) warn_budget();
      ++dropped_;
      total_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    values_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Caps the number of retained values for this collector (0 keeps the
  /// current budget). The process-wide default comes from
  /// PRESTO_SAMPLES_BUDGET (an integer > 0; invalid values are ignored).
  void set_budget(std::size_t budget) {
    if (budget > 0) budget_ = budget;
  }
  std::size_t budget() const { return budget_; }
  /// Values rejected after the budget was exhausted.
  std::uint64_t dropped() const { return dropped_; }

  /// Values rejected by *any* collector in this process — lets reporters
  /// (bench JSON "warnings") flag truncated statistics without having a
  /// handle on every Samples instance. merge() does not re-count: only the
  /// original rejection increments the total. Collectors on different
  /// sweep threads share it, so it is a (relaxed) atomic.
  static std::uint64_t total_dropped() {
    return total_dropped_.load(std::memory_order_relaxed);
  }
  static void reset_total_dropped() {
    total_dropped_.store(0, std::memory_order_relaxed);
  }

  static std::size_t default_budget();

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

  /// Emits up to `points` (value, cumulative-fraction) CDF rows to stdout,
  /// prefixed with `label`.
  void print_cdf(const std::string& label, std::size_t points = 20) const;

  /// Merges another collector's samples into this one (subject to this
  /// collector's budget).
  void merge(const Samples& other) {
    for (double v : other.values_) add(v);
    dropped_ += other.dropped_;
  }

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }

  void warn_budget() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  std::size_t budget_ = default_budget();
  std::uint64_t dropped_ = 0;

  static inline std::atomic<std::uint64_t> total_dropped_{0};
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
