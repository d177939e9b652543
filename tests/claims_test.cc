// The paper claims of every figure-table row (bench/figures.h), checked at
// reduced scale: one case per row, so ctest spreads them.
//
// Seeds and time scale are fixed here, never read from the environment.
// Each row runs at the smallest of 0.1, 0.4 and 1.0 whose verdicts are
// those of the full-scale 3-seed run in results/. A claim must hold; a
// claim that names a Known deviation must fail, so a change that fixes
// the deviation shows up here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "figures.h"

namespace presto::bench {
namespace {

constexpr int kSeeds = 2;

/// Rows whose claims need more than 0.1 of the full run length.
struct Scale {
  const char* row;
  double time_scale;
};
constexpr Scale kLongerRuns[] = {
    // At 0.4 and 0.6 Presto reads 8.6-8.7 Gbps at 7 paths (seed 1077
    // dips), and at 0.4 MPTCP still trails ECMP at 2 paths.
    {"fig07_scalability_tput", 1.0},
    // At 0.4 collided ECMP flows drop nothing at 2 paths, and MPTCP
    // still loses the most.
    {"fig09_scalability_loss_fairness", 1.0},
    // At 0.1 MPTCP's subflows have not ramped up (0.00 Gbps at ratio 4).
    {"fig10_oversub_tput", 0.4},
    {"fig11_oversub_rtt", 0.4},
    {"fig12_oversub_loss_fairness", 0.4},
    // At 0.1 the 128 KB flowcells tie the 64 KB ones.
    {"ablation_flowcell_size", 0.4},
};

double time_scale_of(const std::string& row) {
  for (const Scale& s : kLongerRuns) {
    if (row == s.row) return s.time_scale;
  }
  return 0.1;
}

std::vector<std::string> row_names() {
  std::vector<std::string> names;
  for (const Row& row : figure_rows()) names.emplace_back(row.name);
  return names;
}

class Claims : public ::testing::TestWithParam<std::string> {};

TEST_P(Claims, HoldUnlessTheyNameAKnownDeviation) {
  const Row& row = *find_row(GetParam());
  const Points points =
      run_row(row, {kSeeds, time_scale_of(row.name), kSeeds, ""});

  // Every expected sample landed: each point ran every seed, and a row
  // that probes RTTs or runs mice has samples in every point.
  ASSERT_EQ(points.runs.size(), row.sweep.size() * row.variants.size());
  for (const MultiRun& r : points.runs) {
    EXPECT_EQ(r.runs.size(), static_cast<std::size_t>(kSeeds));
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
