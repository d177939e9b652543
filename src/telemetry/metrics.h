// Metrics registry: named counters / gauges / histograms.
//
// Design goals (ISSUE 1):
//   * zero overhead when disabled — components hold plain pointers into the
//     registry (resolved once at attach time) and guard every update with a
//     single null check; no map lookup or string work on any hot path;
//   * deterministic output — instruments live in a sorted map, so snapshots
//     and JSON emission iterate in name order regardless of insertion order;
//   * mergeable — replica snapshots from a multi-seed sweep combine by
//     summing counters/histograms (gauges keep the max), which is what the
//     SweepRunner uses to aggregate telemetry across seeds.
//
// A Registry belongs to exactly one Experiment (one Simulation); it is not
// thread-safe and must not be shared across sweep replicas.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace presto::telemetry {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value (rule-table sizes, utilization, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Power-of-two bucketed distribution of non-negative samples.
///
/// Bucket i counts samples in [2^(i-1), 2^i) for i >= 1; bucket 0 counts
/// samples < 1. Exponential buckets keep the footprint fixed (65 slots) over
/// the full range of interesting values here — queue depths in bytes, label
/// indices, segment sizes — while preserving order-of-magnitude shape.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(double v) {
    ++count_;
    sum_ += v;
    if (count_ == 1) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++buckets_[bucket_of(v)];
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  const std::uint64_t* buckets() const { return buckets_; }

  /// Bucket index for a sample (shared with snapshot consumers/tests).
  /// Defined for every double: values from 2^64 up, +inf included, land in
  /// the last bucket.
  static std::size_t bucket_of(double v) {
    if (!(v >= 1)) return 0;  // also catches NaN and negatives
    if (v >= 0x1p64) return kBuckets - 1;
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(v)));
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Value-type copy of a histogram, used in snapshots.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::vector<std::uint64_t> buckets;  ///< Trailing zero buckets trimmed.

  void merge(const HistogramSnapshot& o) {
    if (o.count == 0) return;
    if (count == 0) {
      min = o.min;
      max = o.max;
    } else {
      min = std::min(min, o.min);
      max = std::max(max, o.max);
    }
    count += o.count;
    sum += o.sum;
    if (buckets.size() < o.buckets.size()) buckets.resize(o.buckets.size());
    for (std::size_t i = 0; i < o.buckets.size(); ++i) {
      buckets[i] += o.buckets[i];
    }
  }
};

/// Value-type view of a whole registry at one instant. Snapshots are what
/// crosses thread boundaries in a sweep: plain data, freely copyable.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Replica merge: counters/histograms sum, gauges keep the max.
  void merge(const Snapshot& o) {
    for (const auto& [name, v] : o.counters) counters[name] += v;
    for (const auto& [name, v] : o.gauges) {
      auto [it, inserted] = gauges.emplace(name, v);
      if (!inserted) it->second = std::max(it->second, v);
    }
    for (const auto& [name, h] : o.histograms) histograms[name].merge(h);
  }
};

/// Named instrument store. Instruments are created on first use and live as
/// long as the registry; returned references stay valid, which is what lets
/// probes cache them.
class Registry {
 public:
  Counter& counter(const std::string& name) { return slot(counters_, name); }
  Gauge& gauge(const std::string& name) { return slot(gauges_, name); }
  Histogram& histogram(const std::string& name) {
    return slot(histograms_, name);
  }

  Snapshot snapshot() const;

 private:
  template <typename T>
  T& slot(std::map<std::string, std::unique_ptr<T>>& m,
          const std::string& name) {
    auto it = m.find(name);
    if (it == m.end()) {
      it = m.emplace(name, std::make_unique<T>()).first;
    }
    return *it->second;
  }

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace presto::telemetry
