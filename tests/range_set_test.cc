// Unit, property and differential tests for the SACK scoreboard /
// out-of-order store.
#include "tcp/range_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.h"

namespace presto::tcp {
namespace {

TEST(RangeSet, AddAndCovers) {
  RangeSet rs;
  rs.add(10, 20);
  EXPECT_TRUE(rs.covers(10, 20));
  EXPECT_TRUE(rs.covers(12, 15));
  EXPECT_FALSE(rs.covers(5, 12));
  EXPECT_FALSE(rs.covers(15, 25));
  EXPECT_FALSE(rs.covers(30, 40));
}

TEST(RangeSet, EmptyRangeIsNoop) {
  RangeSet rs;
  rs.add(10, 10);
  EXPECT_TRUE(rs.empty());
  EXPECT_TRUE(rs.covers(5, 5));  // empty query is trivially covered
}

TEST(RangeSet, MergesAdjacentAndOverlapping) {
  RangeSet rs;
  rs.add(10, 20);
  rs.add(20, 30);  // adjacent
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs.covers(10, 30));
  rs.add(5, 12);  // overlapping left
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs.covers(5, 30));
  rs.add(40, 50);
  rs.add(25, 45);  // bridges two ranges
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs.covers(5, 50));
}

TEST(RangeSet, TrimBelow) {
  RangeSet rs;
  rs.add(10, 20);
  rs.add(30, 40);
  rs.trim_below(15);
  EXPECT_FALSE(rs.covers(10, 12));
  EXPECT_TRUE(rs.covers(15, 20));
  EXPECT_TRUE(rs.covers(30, 40));
  rs.trim_below(40);
  EXPECT_TRUE(rs.empty());
}

TEST(RangeSet, Advance) {
  RangeSet rs;
  rs.add(10, 20);
  rs.add(20, 25);
  rs.add(30, 40);
  EXPECT_EQ(rs.advance(5), 5u);    // nothing at/below 5
  EXPECT_EQ(rs.advance(10), 25u);  // consumes [10,25)
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.advance(30), 40u);
  EXPECT_TRUE(rs.empty());
}

TEST(RangeSet, AdvanceThroughContainedSeq) {
  RangeSet rs;
  rs.add(10, 30);
  EXPECT_EQ(rs.advance(15), 30u);
}

TEST(RangeSet, EndOfRangeContaining) {
  RangeSet rs;
  rs.add(10, 20);
  EXPECT_EQ(rs.end_of_range_containing(10), 20u);
  EXPECT_EQ(rs.end_of_range_containing(19), 20u);
  EXPECT_EQ(rs.end_of_range_containing(20), 20u);  // end is exclusive
  EXPECT_EQ(rs.end_of_range_containing(5), 5u);
}

TEST(RangeSet, FirstStartAbove) {
  RangeSet rs;
  rs.add(10, 20);
  rs.add(30, 40);
  EXPECT_EQ(rs.first_start_above(0, 999), 10u);
  EXPECT_EQ(rs.first_start_above(20, 999), 30u);
  EXPECT_EQ(rs.first_start_above(40, 999), 999u);
}

TEST(RangeSet, BytesIn) {
  RangeSet rs;
  rs.add(10, 20);
  rs.add(30, 40);
  EXPECT_EQ(rs.bytes_in(0, 100), 20u);
  EXPECT_EQ(rs.bytes_in(15, 35), 10u);  // 5 from first + 5 from second
  EXPECT_EQ(rs.bytes_in(20, 30), 0u);
  EXPECT_EQ(rs.bytes_in(12, 18), 6u);
}

TEST(RangeSet, Intersects) {
  RangeSet rs;
  rs.add(10, 20);
  EXPECT_TRUE(rs.intersects(15, 25));
  EXPECT_TRUE(rs.intersects(5, 11));
  EXPECT_FALSE(rs.intersects(20, 30));  // end-exclusive
  EXPECT_FALSE(rs.intersects(0, 10));
}

// Property test: RangeSet must agree with a naive per-byte reference model
// across random operation sequences.
class RangeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeSetPropertyTest, MatchesReferenceModel) {
  sim::Rng rng(GetParam());
  RangeSet rs;
  std::set<std::uint64_t> model;  // set of covered bytes
  const std::uint64_t space = 200;
  for (int op = 0; op < 300; ++op) {
    const std::uint64_t a = rng.below(space);
    const std::uint64_t b = a + rng.below(20);
    switch (rng.below(3)) {
      case 0: {
        rs.add(a, b);
        for (std::uint64_t x = a; x < b; ++x) model.insert(x);
        break;
      }
      case 1: {
        rs.trim_below(a);
        model.erase(model.begin(), model.lower_bound(a));
        break;
      }
      case 2: {
        // advance from a: consumes the contiguous run at `a` and drops any
        // stale ranges fully below the resulting frontier (see RangeSet).
        std::uint64_t expect = a;
        while (model.count(expect)) {
          model.erase(expect);
          ++expect;
        }
        model.erase(model.begin(), model.lower_bound(expect));
        EXPECT_EQ(rs.advance(a), expect);
        break;
      }
    }
    // Spot-check queries against the model.
    const std::uint64_t q0 = rng.below(space);
    const std::uint64_t q1 = q0 + rng.below(20);
    std::uint64_t count = 0;
    bool all = true, any = false;
    for (std::uint64_t x = q0; x < q1; ++x) {
      if (model.count(x)) {
        ++count;
        any = true;
      } else {
        all = false;
      }
    }
    ASSERT_EQ(rs.bytes_in(q0, q1), count) << "op " << op;
    ASSERT_EQ(rs.covers(q0, q1), all || q0 >= q1) << "op " << op;
    ASSERT_EQ(rs.intersects(q0, q1), any) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(RangeSet, IteratesInOrderAndComparesByContent) {
  RangeSet a;
  a.add(30, 40);
  a.add(10, 20);
  a.add(50, 60);
  const std::vector<RangeSet::Range> want{{10, 20}, {30, 40}, {50, 60}};
  EXPECT_EQ(std::vector<RangeSet::Range>(a.begin(), a.end()), want);
  RangeSet b;
  b.add(10, 15);
  b.add(50, 60);
  b.add(15, 20);
  EXPECT_NE(a, b);
  b.add(30, 40);
  EXPECT_EQ(a, b);
  b.clear();
  EXPECT_EQ(b.begin(), b.end());
}

// The std::map implementation RangeSet had before it became a flat vector,
// its logic unchanged, as the reference model for the differential test.
class MapRangeSet {
 public:
  void add(std::uint64_t start, std::uint64_t end) {
    if (start >= end) return;
    auto it = ranges_.upper_bound(start);
    if (it != ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = ranges_.erase(prev);
      }
    }
    while (it != ranges_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = ranges_.erase(it);
    }
    ranges_.emplace(start, end);
  }

  void trim_below(std::uint64_t seq) {
    auto it = ranges_.begin();
    while (it != ranges_.end() && it->second <= seq) it = ranges_.erase(it);
    if (it != ranges_.end() && it->first < seq) {
      std::uint64_t end = it->second;
      ranges_.erase(it);
      ranges_.emplace(seq, end);
    }
  }

  bool covers(std::uint64_t start, std::uint64_t end) const {
    if (start >= end) return true;
    auto it = ranges_.upper_bound(start);
    if (it == ranges_.begin()) return false;
    --it;
    return it->first <= start && end <= it->second;
  }

  bool intersects(std::uint64_t start, std::uint64_t end) const {
    if (start >= end) return false;
    auto it = ranges_.upper_bound(start);
    if (it != ranges_.begin() && std::prev(it)->second > start) return true;
    return it != ranges_.end() && it->first < end;
  }

  std::uint64_t advance(std::uint64_t seq) {
    auto it = ranges_.begin();
    while (it != ranges_.end() && it->first <= seq) {
      seq = std::max(seq, it->second);
      it = ranges_.erase(it);
    }
    return seq;
  }

  std::uint64_t end_of_range_containing(std::uint64_t seq) const {
    auto it = ranges_.upper_bound(seq);
    if (it == ranges_.begin()) return seq;
    --it;
    return (it->first <= seq && seq < it->second) ? it->second : seq;
  }

  std::uint64_t first_start_above(std::uint64_t seq,
                                  std::uint64_t missing) const {
    auto it = ranges_.lower_bound(seq + 1);
    if (it != ranges_.begin() && std::prev(it)->second > seq) {
      return std::prev(it)->first > seq ? std::prev(it)->first : seq;
    }
    return it != ranges_.end() ? it->first : missing;
  }

  std::uint64_t bytes_in(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t total = 0;
    auto it = ranges_.upper_bound(lo);
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
  std::vector<RangeSet::Range> ranges() const {
    return {ranges_.begin(), ranges_.end()};
  }

 private:
  std::map<std::uint64_t, std::uint64_t> ranges_;
};

// Differential test: the flat RangeSet against the map model, through
// seeded random sequences of every mutation. After each step the range
// lists must be equal and every query must agree at random points, at the
// edges of a random range and at the ends of the value space. Even seeds
// work near 0, odd seeds in the 64 Ki values just below 2^64, so the
// largest values (and first_start_above's wrap at the top) are reached.
class RangeSetDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeSetDifferentialTest, MatchesTheMapImplementation) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kSpan = 1 << 16;
  constexpr std::uint64_t kMissing = 0xdead;
  constexpr int kOps = 5000;
  sim::Rng rng(GetParam());
  const std::uint64_t base = GetParam() % 2 == 0 ? 0 : kTop - (kSpan - 1);
  // Offset into the span -> value; offset kSpan - 1 is the span's top.
  auto at = [&](std::uint64_t off) { return base + std::min(off, kSpan - 1); };
  // Mostly anywhere, sometimes within 64 of the span's top.
  auto offset = [&] {
    return rng.below(8) == 0 ? kSpan - 1 - rng.below(64) : rng.below(kSpan);
  };

  RangeSet rs;
  MapRangeSet ref;
  std::size_t max_size = 0;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t a = offset();
    const std::uint64_t r = rng.below(100);
    // Cuts mostly take a short prefix, so sets grow to hundreds of ranges;
    // now and then one takes a random share of the set.
    const std::uint64_t cut = rng.below(64) == 0 ? a : rng.below(kSpan / 64);
    if (r < 80) {
      const std::uint64_t len = rng.below(32) == 0 ? rng.below(512)
                                                   : rng.below(24);
      rs.add(at(a), at(a + len));
      ref.add(at(a), at(a + len));
    } else if (r < 89) {
      rs.trim_below(at(cut));
      ref.trim_below(at(cut));
    } else if (r < 98) {
      ASSERT_EQ(rs.advance(at(cut)), ref.advance(at(cut))) << "op " << op;
    } else if (rng.below(8) == 0) {
      rs.clear();
      ref.clear();
    }
    max_size = std::max(max_size, ref.size());

    const std::vector<RangeSet::Range> want = ref.ranges();
    ASSERT_EQ(std::vector<RangeSet::Range>(rs.begin(), rs.end()), want)
        << "op " << op;
    ASSERT_EQ(rs.size(), ref.size());
    ASSERT_EQ(rs.empty(), ref.empty());

    std::vector<std::uint64_t> probes{0, 1, kTop - 1, kTop, at(offset()),
                                      at(offset()), at(kSpan - 1)};
    if (!want.empty()) {
      const RangeSet::Range& pick = want[rng.below(want.size())];
      for (const std::uint64_t v : {pick.first, pick.second}) {
        probes.push_back(v - 1);
        probes.push_back(v);
        probes.push_back(v + 1);
      }
    }
    for (const std::uint64_t p : probes) {
      ASSERT_EQ(rs.end_of_range_containing(p), ref.end_of_range_containing(p))
          << "op " << op << " probe " << p;
      ASSERT_EQ(rs.first_start_above(p, kMissing),
                ref.first_start_above(p, kMissing))
          << "op " << op << " probe " << p;
      const std::uint64_t q =
          rng.below(2) == 0 ? probes[rng.below(probes.size())]
                            : p + std::min<std::uint64_t>(rng.below(64),
                                                          kTop - p);
      ASSERT_EQ(rs.covers(p, q), ref.covers(p, q))
          << "op " << op << " [" << p << ", " << q << ")";
      ASSERT_EQ(rs.intersects(p, q), ref.intersects(p, q))
          << "op " << op << " [" << p << ", " << q << ")";
      ASSERT_EQ(rs.bytes_in(p, q), ref.bytes_in(p, q))
          << "op " << op << " [" << p << ", " << q << ")";
    }
    ASSERT_EQ(rs.bytes_in(0, kTop), ref.bytes_in(0, kTop));
  }
  // The walk must have reached the set sizes the simulator sees.
  EXPECT_GE(max_size, 300u) << max_size;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace presto::tcp
