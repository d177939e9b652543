// Ordered set of disjoint half-open byte ranges [start, end).
//
// Used for the receiver's out-of-order store, the sender's SACK scoreboard
// and the checker's byte books. The ranges live in one flat vector sorted by
// start; no two of them overlap or touch, so the set has exactly one form.
// Lookups are binary searches, O(log n). A merge or prefix erase shifts the
// tail of the vector, O(n) in the worst case, but the sets seen in practice
// hold tens of ranges (a few hundred at most), and an in-order extension
// rewrites one range in place: once the vector has grown, nothing allocates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace presto::tcp {

class RangeSet {
 public:
  using Range = std::pair<std::uint64_t, std::uint64_t>;  // [start, end)
  using const_iterator = std::vector<Range>::const_iterator;

  /// Inserts [start, end), merging with overlapping/adjacent ranges.
  void add(std::uint64_t start, std::uint64_t end) {
    if (start >= end) return;
    // Ends ascend with starts, so the first range ending at/after `start` is
    // the first one that can touch [start, end).
    auto first = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [start](const Range& r) { return r.second < start; });
    if (first == ranges_.end() || first->first > end) {
      ranges_.insert(first, Range{start, end});
      return;
    }
    auto last = std::next(first);
    while (last != ranges_.end() && last->first <= end) ++last;
    first->first = std::min(first->first, start);
    first->second = std::max(end, std::prev(last)->second);
    ranges_.erase(std::next(first), last);
  }

  /// Removes all bytes below `seq`.
  void trim_below(std::uint64_t seq) {
    ranges_.erase(ranges_.begin(),
                  std::partition_point(
                      ranges_.begin(), ranges_.end(),
                      [seq](const Range& r) { return r.second <= seq; }));
    if (!ranges_.empty() && ranges_.front().first < seq) {
      ranges_.front().first = seq;
    }
  }

  /// True if every byte of [start, end) is present.
  bool covers(std::uint64_t start, std::uint64_t end) const {
    if (start >= end) return true;
    auto it = upper_bound(start);
    if (it == ranges_.begin()) return false;
    --it;
    return it->first <= start && end <= it->second;
  }

  /// True if any byte of [start, end) is present.
  bool intersects(std::uint64_t start, std::uint64_t end) const {
    if (start >= end) return false;
    auto it = upper_bound(start);
    if (it != ranges_.begin() && std::prev(it)->second > start) return true;
    return it != ranges_.end() && it->first < end;
  }

  /// Extends `seq` through any range beginning at/below it; returns the new
  /// frontier (receiver's rcv_nxt advance). Consumed ranges — and any stale
  /// ranges falling entirely below the resulting frontier — are dropped, so
  /// a receiver's out-of-order store never reports data below rcv_nxt.
  std::uint64_t advance(std::uint64_t seq) {
    auto it = ranges_.begin();
    for (; it != ranges_.end() && it->first <= seq; ++it) {
      seq = std::max(seq, it->second);
    }
    ranges_.erase(ranges_.begin(), it);
    return seq;
  }

  /// End of the range containing `seq`, or `seq` itself if absent.
  std::uint64_t end_of_range_containing(std::uint64_t seq) const {
    auto it = upper_bound(seq);
    if (it == ranges_.begin()) return seq;
    --it;
    return (it->first <= seq && seq < it->second) ? it->second : seq;
  }

  /// Start of the first range at/above `seq`, or `missing` if none.
  std::uint64_t first_start_above(std::uint64_t seq,
                                  std::uint64_t missing) const {
    // First range starting at/above seq + 1 (wraps to the first range when
    // seq is the largest value).
    auto it = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [key = seq + 1](const Range& r) { return r.first < key; });
    // A range containing seq+ may start at/before seq.
    if (it != ranges_.begin() && std::prev(it)->second > seq) {
      return std::prev(it)->first > seq ? std::prev(it)->first : seq;
    }
    return it != ranges_.end() ? it->first : missing;
  }

  /// Total bytes contained in [lo, hi).
  std::uint64_t bytes_in(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t total = 0;
    auto it = upper_bound(lo);
    if (it != ranges_.begin()) --it;
    for (; it != ranges_.end() && it->first < hi; ++it) {
      const std::uint64_t s = std::max(it->first, lo);
      const std::uint64_t e = std::min(it->second, hi);
      if (s < e) total += e - s;
    }
    return total;
  }

  void clear() { ranges_.clear(); }
  bool empty() const { return ranges_.empty(); }
  std::size_t size() const { return ranges_.size(); }

  /// The ranges in ascending order.
  const_iterator begin() const { return ranges_.begin(); }
  const_iterator end() const { return ranges_.end(); }

  bool operator==(const RangeSet&) const = default;

 private:
  /// First range starting above `seq`.
  const_iterator upper_bound(std::uint64_t seq) const {
    return std::partition_point(
        ranges_.begin(), ranges_.end(),
        [seq](const Range& r) { return r.first <= seq; });
  }

  std::vector<Range> ranges_;  // sorted by start; disjoint, non-touching
};

}  // namespace presto::tcp
