// Sweep runner tests: index-ordered results, exception propagation, and the
// parallel == serial determinism guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/sweep.h"

namespace presto::harness {
namespace {

TEST(RunIndexed, ResultsLandInIndexOrder) {
  const auto runs = run_indexed(8, 4, [](int i) {
    RunResult r;
    r.avg_tput_gbps = i;
    return r;
  });
  ASSERT_EQ(runs.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(runs[i].avg_tput_gbps, i);
}

TEST(RunIndexed, RunsEveryIndexExactlyOnce) {
  std::atomic<int> calls{0};
  const auto runs = run_indexed(16, 4, [&](int) {
    calls.fetch_add(1);
    return RunResult{};
  });
  EXPECT_EQ(runs.size(), 16u);
  EXPECT_EQ(calls.load(), 16);
}

TEST(RunIndexed, PropagatesFirstFailingIndex) {
  EXPECT_THROW(run_indexed(8, 4,
                           [](int i) -> RunResult {
                             if (i == 3) throw std::runtime_error("boom");
                             return RunResult{};
                           }),
               std::runtime_error);
}

TEST(RunIndexed, ZeroAndOneItemsAreFine) {
  EXPECT_TRUE(run_indexed(0, 4, [](int) { return RunResult{}; }).empty());
  EXPECT_EQ(run_indexed(1, 4, [](int) { return RunResult{}; }).size(), 1u);
}

// A replica returns its own per-seed type: results still land in index
// order, and a failing index's exception still reaches the caller.
TEST(RunIndexed, ReturnsWhatTheReplicaReturns) {
  struct Stages {
    std::vector<double> gbps;
    std::string name;
  };
  const std::vector<Stages> runs = run_indexed(6, 3, [](int i) {
    return Stages{{i * 1.0, i * 2.0}, "seed" + std::to_string(i)};
  });
  ASSERT_EQ(runs.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(runs[i].gbps, (std::vector<double>{i * 1.0, i * 2.0}));
    EXPECT_EQ(runs[i].name, "seed" + std::to_string(i));
  }
  EXPECT_THROW(run_indexed(6, 3,
                           [](int i) -> Stages {
                             if (i == 4) throw std::logic_error("stage");
                             return {};
                           }),
               std::logic_error);
}

// A synthetic replica: a deterministic function of the seed, cheap enough to
// sweep widely. Mirrors what a real run produces (scalars + samples +
// telemetry counters).
RunResult fake_replica(const ExperimentConfig& cfg) {
  RunResult r;
  const auto s = static_cast<double>(cfg.seed);
  r.avg_tput_gbps = 1.0 / (s + 1.0);  // order-sensitive FP accumulation
  r.fairness = s * 0.25;
  r.loss_pct = s * 0.01;
  r.mice_timeouts = cfg.seed % 3;
  r.rtt_ms.add(s);
  r.fct_ms.add(s * 2);
  r.telemetry.counters["tcp.retx.fast"] = cfg.seed;
  r.telemetry.gauges["queue.depth"] = s;
  return r;
}

TEST(RunSweep, AppliesSeedSeries) {
  SweepOptions opt;
  opt.seeds = 4;
  opt.base_seed = 1000;
  opt.seed_stride = 77;
  opt.threads = 1;
  std::vector<std::uint64_t> seen;
  run_sweep(
      ExperimentConfig{},
      [&](const ExperimentConfig& cfg) {
        seen.push_back(cfg.seed);
        return RunResult{};
      },
      opt);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], 1000u);
  EXPECT_EQ(seen[3], 1000u + 3 * 77u);
}

TEST(RunSweep, MergesAcrossSeeds) {
  SweepOptions opt;
  opt.seeds = 3;
  opt.base_seed = 0;
  opt.seed_stride = 1;
  opt.threads = 1;
  const SweepResult r = run_sweep(ExperimentConfig{}, fake_replica, opt);
  ASSERT_EQ(r.runs.size(), 3u);
  EXPECT_NEAR(r.avg_tput_gbps, (1.0 + 0.5 + 1.0 / 3.0) / 3.0, 1e-12);
  EXPECT_EQ(r.mice_timeouts, 0u + 1u + 2u);
  EXPECT_EQ(r.rtt_ms.count(), 3u);
  EXPECT_EQ(r.fct_ms.count(), 3u);
  EXPECT_EQ(r.telemetry.counters.at("tcp.retx.fast"), 0u + 1u + 2u);
  EXPECT_EQ(r.telemetry.gauges.at("queue.depth"), 2.0);  // max
}

TEST(RunSweep, ParallelMatchesSerialBitForBit) {
  SweepOptions serial;
  serial.seeds = 8;
  serial.threads = 1;
  SweepOptions parallel = serial;
  parallel.threads = 4;
  const SweepResult a = run_sweep(ExperimentConfig{}, fake_replica, serial);
  const SweepResult b = run_sweep(ExperimentConfig{}, fake_replica, parallel);
  // Merged in seed order either way => identical FP accumulation.
  EXPECT_EQ(a.avg_tput_gbps, b.avg_tput_gbps);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.loss_pct, b.loss_pct);
  EXPECT_EQ(a.rtt_ms.count(), b.rtt_ms.count());
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(a.rtt_ms.percentile(p), b.rtt_ms.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(a.telemetry.counters, b.telemetry.counters);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].avg_tput_gbps, b.runs[i].avg_tput_gbps);
  }
}

// Real-simulation variant of the same guarantee: a small Presto experiment
// swept on 4 threads reproduces the serial merged numbers exactly.
TEST(RunSweep, ParallelMatchesSerialOnRealExperiment) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kPresto;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.telemetry.metrics = true;
  RunOptions ro;
  ro.warmup = 20 * sim::kMillisecond;
  ro.measure = 60 * sim::kMillisecond;
  const auto pairs = workload::stride_pairs(4, 2);
  const SweepRunFn run = [&](const ExperimentConfig& seeded) {
    return run_pairs(seeded, pairs, ro);
  };
  SweepOptions serial;
  serial.seeds = 3;
  serial.threads = 1;
  SweepOptions parallel = serial;
  parallel.threads = 4;
  const SweepResult a = run_sweep(cfg, run, serial);
  const SweepResult b = run_sweep(cfg, run, parallel);
  EXPECT_GT(a.avg_tput_gbps, 0.3);
  EXPECT_EQ(a.avg_tput_gbps, b.avg_tput_gbps);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.telemetry.counters, b.telemetry.counters);
}

}  // namespace
}  // namespace presto::harness
