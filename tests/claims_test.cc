// The paper claims of every figure-table row (bench/figures.h), checked at
// reduced scale: one case per row, so ctest spreads them.
//
// Seeds and time scale are fixed here, never read from the environment.
// Each row runs on 2 seeds at the smallest of 0.1, 0.4 and 1.0 whose
// verdicts are those of the full-scale 3-seed run in results/, or on the
// full run's 3 seeds where no 2-seed run has its verdicts. A claim must
// hold; a claim that names a Known deviation must fail, so a change that
// fixes the deviation shows up here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "figures.h"

namespace presto::bench {
namespace {

/// Rows whose claims need more than 2 seeds or 0.1 of the full run length.
struct Plan {
  const char* row;
  int seeds;
  double time_scale;
};
constexpr Plan kLongerRuns[] = {
    // At 0.4 and 0.6 Presto reads 8.6-8.7 Gbps at 7 paths (seed 1077
    // dips), and at 0.4 MPTCP still trails ECMP at 2 paths.
    {"fig07_scalability_tput", 2, 1.0},
    // At 0.4 collided ECMP flows drop nothing at 2 paths, and MPTCP
    // still loses the most.
    {"fig09_scalability_loss_fairness", 2, 1.0},
    // At 0.1 MPTCP's subflows have not ramped up (0.00 Gbps at ratio 4).
    {"fig10_oversub_tput", 2, 0.4},
    {"fig11_oversub_rtt", 2, 0.4},
    {"fig12_oversub_loss_fairness", 2, 0.4},
    // At 0.1 the 128 KB flowcells tie the 64 KB ones.
    {"ablation_flowcell_size", 2, 0.4},
    // Three ratios sit near their bounds and move with the seed count: on
    // 2 seeds Presto/Optimal on Random reads 0.957 (3 seeds: 0.975) and
    // Presto clears 1.38x ECMP on Stride at every scale; on 3 seeds at
    // 0.1 or 0.4 it clears 1.17x MPTCP on Random (full run: 1.12).
    {"fig15_synthetic_tput", 3, 1.0},
    // At 0.4 ECMP's p99.9 mice FCT is 3.6 ms: its min-RTO events have not
    // reached the tail.
    {"fig16_mice_fct", 2, 1.0},
    // At 0.1 Presto's elephants land within 2% of Optimal and under
    // 1.10x ECMP.
    {"table1_trace_fct", 2, 0.4},
    // ECMP's p99.9 mice FCT is a min-RTO event only in the third seed;
    // on 2 seeds, and on 3 at 0.1 or 0.4, it stays under 10 ms.
    {"table2_north_south", 3, 1.0},
};

SeedPlan plan_of(const std::string& row) {
  for (const Plan& p : kLongerRuns) {
    if (row == p.row) {
      return {p.seeds, p.time_scale, static_cast<unsigned>(p.seeds), ""};
    }
  }
  return {2, 0.1, 2, ""};
}

std::vector<std::string> row_names() {
  std::vector<std::string> names;
  for (const Row& row : figure_rows()) names.emplace_back(row.name);
  return names;
}

class Claims : public ::testing::TestWithParam<std::string> {};

TEST_P(Claims, HoldUnlessTheyNameAKnownDeviation) {
  const Row& row = *find_row(GetParam());
  const SeedPlan plan = plan_of(row.name);
  const Points points = run_row(row, plan);

  // Every expected sample landed: each point ran every seed, and a row
  // that probes RTTs or runs mice has samples in every point.
  ASSERT_EQ(points.runs.size(), row.sweep.size() * row.variants.size());
  for (const MultiRun& r : points.runs) {
    EXPECT_EQ(r.runs.size(), static_cast<std::size_t>(plan.seeds));
    if (row.opt.rtt_probes) {
      EXPECT_GT(r.rtt_ms.count(), 0u);
    }
    if (row.opt.mice) {
      EXPECT_GT(r.fct_ms.count(), 0u);
    }
  }

  ASSERT_FALSE(row.claims.empty());
  for (const Claim& claim : row.claims) {
    const std::string counterexample = check_claim(claim, points);
    if (claim.deviation == 0) {
      EXPECT_EQ(counterexample, "") << "paper: " << claim.paper;
    } else {
      EXPECT_NE(counterexample, "")
          << "paper: " << claim.paper << " now holds; EXPERIMENTS.md Known "
          << "deviation " << claim.deviation << " may be fixed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, Claims, ::testing::ValuesIn(row_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace presto::bench
