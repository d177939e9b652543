// Stats tests: percentiles, fairness, reordering metrics.
#include <gtest/gtest.h>

#include "stats/reorder_metrics.h"
#include "stats/samples.h"

namespace presto::stats {
namespace {

TEST(Samples, PercentilesOnKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(100), 100, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 100);
}

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.percentile(50), 0);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(Samples, PercentileClampsOutOfRangeP) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_EQ(s.percentile(-5), s.percentile(0));
  EXPECT_EQ(s.percentile(-5), 1);
  EXPECT_EQ(s.percentile(150), s.percentile(100));
  EXPECT_EQ(s.percentile(150), 10);
}

TEST(Samples, PercentileNanBehavesLikeZero) {
  Samples s;
  s.add(3);
  s.add(7);
  EXPECT_EQ(s.percentile(std::nan("")), 3);
}

TEST(Samples, PercentileSingleSample) {
  Samples s;
  s.add(42);
  EXPECT_EQ(s.percentile(0), 42);
  EXPECT_EQ(s.percentile(50), 42);
  EXPECT_EQ(s.percentile(100), 42);
  EXPECT_EQ(s.percentile(1000), 42);
}

TEST(Samples, PercentileExactEndpoints) {
  Samples s;
  s.add(5);
  s.add(1);
  s.add(9);
  EXPECT_EQ(s.percentile(0), 1);
  EXPECT_EQ(s.percentile(100), 9);
}

TEST(Samples, MergeCombines) {
  Samples a, b;
  a.add(1);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.mean(), 2, 1e-9);
}

// Samples has no retention cap: every value added or merged is kept.
TEST(Samples, BudgetZeroKeepsCurrentBudget) {
  Samples s;
  s.add(0);
  s.add(5);
  s.add(0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 5);
  EXPECT_EQ(s.percentile(50), 0);
}

TEST(Samples, MergeRespectsDestinationBudget) {
  Samples a;
  for (int i = 0; i < 3; ++i) a.add(i);
  Samples b;
  for (int i = 3; i < 11; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 11u);
  EXPECT_EQ(b.count(), 8u);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 10);
}

TEST(Samples, DefaultBudgetIsLarge) {
  constexpr std::size_t kValues = 1'000'001;
  Samples s;
  for (std::size_t i = 0; i < kValues; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), kValues);
  EXPECT_EQ(s.percentile(100), static_cast<double>(kValues - 1));
}

TEST(Jain, PerfectFairnessIsOne) {
  EXPECT_NEAR(jain_index({5, 5, 5, 5}), 1.0, 1e-9);
}

TEST(Jain, WorstCaseIsOneOverN) {
  EXPECT_NEAR(jain_index({10, 0, 0, 0}), 0.25, 1e-9);
}

TEST(Jain, IsInUnitRange) {
  const double j = jain_index({1, 2, 3, 4, 5});
  EXPECT_GT(j, 0.0);
  EXPECT_LE(j, 1.0);
}

offload::Segment seg(std::uint64_t start, std::uint32_t bytes,
                     std::uint64_t flowcell) {
  offload::Segment s;
  s.flow = net::FlowKey{0, 1, 10000, 80};
  s.start_seq = start;
  s.end_seq = start + bytes;
  s.flowcell = flowcell;
  return s;
}

TEST(ReorderMetrics, NoInterleavingMeansZero) {
  ReorderMetrics m;
  // Flowcells pushed contiguously (several segments each): zero interleave.
  m.on_segment(seg(0, 30000, 1));
  m.on_segment(seg(30000, 35536, 1));
  m.on_segment(seg(65536, 65536, 2));
  m.finish();
  ASSERT_EQ(m.out_of_order_counts().count(), 2u);
  EXPECT_EQ(m.out_of_order_counts().max(), 0);
}

TEST(ReorderMetrics, CountsInterleavedSegments) {
  ReorderMetrics m;
  // Flowcell 1 split in two pushes with a flowcell-2 push in between.
  m.on_segment(seg(0, 30000, 1));
  m.on_segment(seg(65536, 65536, 2));
  m.on_segment(seg(30000, 35536, 1));  // completes flowcell 1
  m.finish();
  const Samples& counts = m.out_of_order_counts();
  ASSERT_EQ(counts.count(), 2u);
  // Flowcell 1 saw exactly one foreign segment between its first and last.
  EXPECT_EQ(counts.max(), 1);
}

TEST(ReorderMetrics, HeavyInterleaveCounted) {
  ReorderMetrics m;
  // fc1 and fc2 alternate 4 times: each sees 4 foreign segments inside its
  // span... fc1 span covers indices 0..6 (4 own), fc2 covers 1..7 (4 own).
  for (int i = 0; i < 4; ++i) {
    m.on_segment(seg(i * 1448, 1448, 1));
    m.on_segment(seg(100000 + i * 1448, 1448, 2));
  }
  m.finish();
  ASSERT_EQ(m.out_of_order_counts().count(), 2u);
  EXPECT_EQ(m.out_of_order_counts().min(), 3);
  EXPECT_EQ(m.out_of_order_counts().max(), 3);
}

TEST(ReorderMetrics, SegmentSizesRecorded) {
  ReorderMetrics m;
  m.on_segment(seg(0, 1448, 1));
  m.on_segment(seg(1448, 64088, 1));
  EXPECT_EQ(m.segment_sizes().count(), 2u);
  EXPECT_EQ(m.segment_sizes().min(), 1448);
}

}  // namespace
}  // namespace presto::stats
