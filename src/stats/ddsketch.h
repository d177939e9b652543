// Bounded streaming percentile sketch (DDSketch-style).
//
// A DDSketch buckets values on a geometric grid: bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1 + alpha) / (1 - alpha), so any
// quantile it reports is within a relative error of `alpha` of some sample
// at that rank — regardless of how many values were added. Memory is hard
// bounded: when the store would exceed `max_buckets`, the lowest buckets are
// collapsed together, sacrificing low-quantile resolution while the tail
// (the percentiles the benchmarks report) stays exact to `alpha`.
//
// The accessor surface mirrors stats::Samples (count/mean/min/max/
// percentile/merge), so harness results can carry a sketch where they used
// to carry an unbounded sample vector. Sketches with equal `alpha` merge
// losslessly and associatively; mismatched-accuracy merges fall back to
// re-keying bucket midpoints (still bounded, error adds).
#pragma once

#include <cstdint>
#include <vector>

#include "stats/samples.h"

namespace presto::stats {

class DDSketch {
 public:
  /// Default relative accuracy: 0.5%, comfortably inside the 1% budget the
  /// golden equivalence tests allow versus exact Samples percentiles.
  static constexpr double kDefaultAlpha = 0.005;
  /// Default store bound. At alpha = 0.005 one bucket spans a factor of
  /// ~1.01, so 4096 buckets cover ~17 decades of dynamic range — far more
  /// than any latency/size distribution here — in 32 KB.
  static constexpr std::size_t kDefaultMaxBuckets = 4096;
  /// Values with magnitude below this land in the zero bucket.
  static constexpr double kMinIndexable = 1e-9;

  /// Default accuracy and bound. Not explicit, so aggregates holding a
  /// sketch can be copy-list-initialized (`RunResult{}`).
  DDSketch() : DDSketch(kDefaultAlpha) {}
  explicit DDSketch(double alpha,
                    std::size_t max_buckets = kDefaultMaxBuckets);

  /// Adds one value. Any finite double is accepted; magnitudes below
  /// kMinIndexable count as zero, negatives go to a mirrored store.
  void add(double v);

  /// Adds every value currently held by an exact sample vector.
  void add_all(const Samples& s) {
    for (double v : s.values()) add(v);
  }

  /// Sketch of an exact sample set (bridging collectors that still
  /// accumulate raw values, e.g. ReorderMetrics).
  static DDSketch of(const Samples& s, double alpha = kDefaultAlpha) {
    DDSketch d(alpha);
    d.add_all(s);
    return d;
  }

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }

  /// Quantile estimate with the same conventions as Samples::percentile:
  /// empty -> 0, out-of-range/NaN p clamped to [0, 100], p=0/p=100 return
  /// the exact min/max. Interior quantiles are bucket midpoints, within
  /// `alpha` relative error of the empirical quantile.
  double percentile(double p) const;

  /// Merges another sketch into this one. Same-alpha merges are lossless
  /// and associative (bucket-wise addition); mismatched alphas re-key the
  /// other sketch's bucket midpoints into this grid.
  void merge(const DDSketch& other);

  double alpha() const { return alpha_; }
  /// Buckets currently allocated across both stores (memory diagnostics;
  /// bounded by 2 * max_buckets regardless of stream length).
  std::size_t bucket_count() const {
    return pos_.counts.size() + neg_.counts.size();
  }
  /// Samples that lost low-end resolution to a store collapse. The tail
  /// quantiles stay within alpha; this counts how many values are now only
  /// known to be "<= lowest retained bucket".
  std::uint64_t collapsed() const { return collapsed_; }

 private:
  struct Store {
    std::vector<std::uint64_t> counts;  // dense, keys [base, base + size)
    std::int32_t base = 0;

    /// Adds `n` at `key`, growing the dense range as needed. Returns the
    /// number of samples that had to be collapsed into the lowest retained
    /// bucket to respect `max_buckets`.
    std::uint64_t add(std::int32_t key, std::uint64_t n,
                      std::size_t max_buckets);
  };

  std::int32_t key_of(double magnitude) const;
  double value_of(std::int32_t key) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::size_t max_buckets_;
  Store pos_;
  Store neg_;  // mirrored: key of |v| for v < 0
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t collapsed_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace presto::stats
