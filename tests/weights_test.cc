// Weighted-multipathing tests: weight -> duplication sequences (§3.3) and
// controller integration (pair weights, link restore).
#include "controller/weights.h"

#include <gtest/gtest.h>

#include <map>

#include "harness/experiment.h"
#include "sim/rng.h"

namespace presto::controller {
namespace {

TEST(Weights, PaperExampleQuarterHalfQuarter) {
  // §3.3: weights {0.25, 0.5, 0.25} -> p1, p2, p3, p2 (counts 1, 2, 1).
  const auto counts = weight_counts({0.25, 0.5, 0.25});
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 2, 1}));
  const auto order = interleave_schedule(counts);
  ASSERT_EQ(order.size(), 4u);
  // Path 1 (weight 0.5) appears twice, never back-to-back.
  int p2 = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 1) ++p2;
    if (i > 0) {
      EXPECT_FALSE(order[i] == 1 && order[i - 1] == 1);
    }
  }
  EXPECT_EQ(p2, 2);
}

TEST(Weights, EqualWeightsCollapseToOneSlotEach) {
  const auto counts = weight_counts({1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST(Weights, ZeroWeightGetsNoSlots) {
  const auto counts = weight_counts({0.5, 0.0, 0.5});
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[0], 0u);
  EXPECT_EQ(counts[0], counts[2]);
}

TEST(Weights, AllZeroIsEmpty) {
  const auto counts = weight_counts({0.0, 0.0});
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_TRUE(interleave_schedule(counts).empty());
}

TEST(Weights, EveryPositiveWeightRepresented) {
  const auto counts = weight_counts({0.97, 0.01, 0.01, 0.01});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], 1u) << i;
  }
}

TEST(Weights, ErrorBoundedByOneSlot) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> w(2 + rng.below(6));
    for (double& x : w) x = 0.05 + rng.uniform();
    const std::uint32_t slots = 8 + static_cast<std::uint32_t>(rng.below(9));
    const auto counts = weight_counts(w, slots);
    std::uint32_t total = 0;
    for (auto c : counts) total += c;
    ASSERT_GT(total, 0u);
    // Largest-remainder apportionment with per-path minimums: realized
    // proportions stay within ~2 slots of the request.
    EXPECT_LE(max_weight_error(w, counts), 2.0 / total + 1e-9)
        << "trial " << trial;
  }
}

TEST(Weights, InterleaveSpacesDuplicates) {
  const auto order = interleave_schedule({4, 2, 1});
  ASSERT_EQ(order.size(), 7u);
  // Count of each index must match.
  std::map<std::size_t, int> hist;
  for (auto i : order) ++hist[i];
  EXPECT_EQ(hist[0], 4);
  EXPECT_EQ(hist[1], 2);
  EXPECT_EQ(hist[2], 1);
}

TEST(ControllerWeights, PairWeightsDriveTrafficSplit) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 4;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 1;
  cfg.seed = 31;
  harness::Experiment ex(cfg);
  // 1/8, 1/2, 1/4, 1/8 over the four trees.
  ex.ctl().set_pair_weights(0, 1, {0.125, 0.5, 0.25, 0.125});
  ex.add_elephant(0, 1, 0);
  ex.sim().run_until(200 * sim::kMillisecond);
  // Spine tx counters must reflect the weights.
  std::vector<double> tx;
  double total = 0;
  for (net::SwitchId s : ex.topo().spines()) {
    const auto c = ex.topo().get_switch(s).total_counters();
    tx.push_back(static_cast<double>(c.tx_bytes));
    total += static_cast<double>(c.tx_bytes);
  }
  ASSERT_GT(total, 0);
  EXPECT_NEAR(tx[0] / total, 0.125, 0.04);
  EXPECT_NEAR(tx[1] / total, 0.5, 0.06);
  EXPECT_NEAR(tx[2] / total, 0.25, 0.05);
  EXPECT_NEAR(tx[3] / total, 0.125, 0.04);
}

TEST(ControllerWeights, LinkRestoreReturnsToFullSchedules) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.seed = 37;
  cfg.controller.controller_react_delay = 50 * sim::kMillisecond;
  harness::Experiment ex(cfg);
  const net::SwitchId leaf0 = ex.topo().leaves()[0];
  const net::SwitchId spine0 = ex.topo().spines()[0];
  const net::HostId src = ex.topo().hosts_on(ex.topo().leaves()[1])[0];
  const net::HostId dst = ex.topo().hosts_on(leaf0)[0];

  ex.ctl().schedule_link_failure(leaf0, spine0, 0, 10 * sim::kMillisecond);
  ex.ctl().schedule_link_restore(leaf0, spine0, 0, 200 * sim::kMillisecond);
  auto& el = ex.add_elephant(src, dst, 0);

  ex.sim().run_until(100 * sim::kMillisecond);  // post-weighted stage
  EXPECT_EQ(ex.ctl().label_map(src).schedule(dst)->size(), 3u);  // pruned
  const std::uint64_t mid = el.delivered();
  EXPECT_GT(mid, 0u);

  ex.sim().run_until(300 * sim::kMillisecond);  // post-restore
  EXPECT_EQ(ex.ctl().label_map(src).schedule(dst)->size(), 4u);  // full again
  EXPECT_GT(el.delivered(), mid);

  // Traffic must now be able to cross the restored spine again.
  const auto c0 =
      ex.topo().get_switch(spine0).total_counters().tx_bytes;
  ex.sim().run_until(400 * sim::kMillisecond);
  EXPECT_GT(ex.topo().get_switch(spine0).total_counters().tx_bytes, c0);
}

}  // namespace
}  // namespace presto::controller
