// Stats tests: percentiles, fairness, reordering metrics.
#include <gtest/gtest.h>

#include <thread>

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

TEST(Samples, BudgetCapsRetainedValuesAndCountsDrops) {
  Samples s;
  s.set_budget(10);
  EXPECT_EQ(s.budget(), 10u);
  for (int i = 1; i <= 25; ++i) s.add(i);
  EXPECT_EQ(s.count(), 10u);
  EXPECT_EQ(s.dropped(), 15u);
  // The retained prefix still reports sane stats.
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 10);
}

TEST(Samples, TotalDroppedAggregatesAcrossCollectorsWithoutMergeDoubleCount) {
  Samples::reset_total_dropped();
  Samples a, b;
  a.set_budget(1);
  b.set_budget(1);
  a.add(1);
  a.add(2);  // dropped by a
  b.add(3);
  b.add(4);  // dropped by b
  EXPECT_EQ(Samples::total_dropped(), 2u);
  // A lossless merge folds b's per-collector count into a's without adding
  // new rejections to the process-wide total.
  a.set_budget(10);
  a.merge(b);
  EXPECT_EQ(a.dropped(), 2u);
  EXPECT_EQ(Samples::total_dropped(), 2u);
  Samples::reset_total_dropped();
}

// Sweep replicas fill their own collectors on worker threads, and every
// over-budget add bumps the one process-wide total (a data race under TSan
// while it was a plain integer).
TEST(Samples, TotalDroppedCountsDropsFromConcurrentCollectors) {
  Samples::reset_total_dropped();
  constexpr int kAdds = 20000;
  auto fill = [] {
    Samples s;
    s.set_budget(1);
    for (int i = 0; i < kAdds; ++i) s.add(i);
  };
  std::thread a(fill);
  std::thread b(fill);
  a.join();
  b.join();
  EXPECT_EQ(Samples::total_dropped(), 2u * (kAdds - 1));
  Samples::reset_total_dropped();
}

TEST(Samples, BudgetZeroKeepsCurrentBudget) {
  Samples s;
  s.set_budget(5);
  s.set_budget(0);  // ignored: 0 is not a valid budget
  EXPECT_EQ(s.budget(), 5u);
}

TEST(Samples, MergeRespectsDestinationBudget) {
  Samples a;
  a.set_budget(3);
  Samples b;
  for (int i = 0; i < 8; ++i) b.add(i);
  EXPECT_EQ(b.dropped(), 0u);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.dropped(), 5u);
}

TEST(Samples, DefaultBudgetIsLarge) {
  Samples s;
  EXPECT_EQ(s.budget(), Samples::default_budget());
  EXPECT_GE(s.budget(), 1'000'000u);
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
