// Control-loop property suite (DESIGN.md §17): the re-weighting math's
// invariants (normalization, hysteresis, floor, convergence, monotone
// hot-tree decay), the spec round-trip, the (failure-set, weights-epoch)
// push memoization, and the loop's behavior under control-plane faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "controller/control_loop.h"
#include "harness/experiment.h"
#include "sim/rng.h"
#include "workload/patterns.h"

namespace presto::controller {
namespace {

constexpr double kEps = 1e-9;

double sum(const std::vector<double>& w) {
  double s = 0;
  for (double v : w) s += v;
  return s;
}

double linf(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

double floor_for(const ControlLoopConfig& cfg, std::size_t n) {
  return std::min(cfg.min_weight, 1.0 / static_cast<double>(n));
}

/// One full per-period update exactly as the loop applies it.
std::vector<double> step(const std::vector<double>& prev,
                         const std::vector<TreeSignal>& sig,
                         const ControlLoopConfig& cfg) {
  Reweighter r;
  std::vector<double> next;
  r.step(prev, sig, cfg, next);
  return next;
}

// ---------------------------------------------------------------------------
// Pure re-weighting properties.

TEST(ControlLoopMath, WeightsStayNormalizedAndFloored) {
  ControlLoopConfig cfg;
  // A grab-bag of signal shapes: healthy, one hot tree, all hot, loaded,
  // deep queues — the invariants must hold under every one of them.
  const std::vector<std::vector<TreeSignal>> shapes = {
      {{}, {}, {}, {}},
      {{0.3, 0.0, 0.0, 0.25}, {}, {}, {}},
      {{0.2, 0.9, 1.0, 0.25}, {0.1, 0.8, 1.0, 0.25},
       {0.3, 0.7, 0.9, 0.25}, {0.05, 0.5, 0.8, 0.25}},
      {{0.0, 0.2, 0.95, 0.4}, {0.0, 0.1, 0.5, 0.2},
       {0.0, 0.9, 1.0, 0.2}, {0.0, 0.0, 0.3, 0.2}},
  };
  for (std::uint32_t horizon : {0u, 4u}) {
    cfg.horizon = horizon;
    for (const auto& sig : shapes) {
      std::vector<double> w(4, 0.25);
      for (int it = 0; it < 50; ++it) {
        w = step(w, sig, cfg);
        EXPECT_NEAR(sum(w), 1.0, 1e-6);
        for (double v : w) {
          EXPECT_GE(v, floor_for(cfg, w.size()) - kEps);
          EXPECT_LE(v, 1.0 + kEps);
        }
      }
    }
  }
}

TEST(ControlLoopMath, HysteresisBoundsPerPeriodDelta) {
  ControlLoopConfig cfg;
  cfg.max_delta = 0.10;
  cfg.gain = 1.0;  // the clamp, not the gain, must do the bounding
  const std::vector<TreeSignal> sig = {
      {0.5, 1.0, 1.0, 0.25}, {}, {}, {}};
  std::vector<double> w(4, 0.25);
  for (int it = 0; it < 30; ++it) {
    const std::vector<double> next = step(w, sig, cfg);
    EXPECT_LE(linf(next, w), cfg.max_delta + kEps) << "iteration " << it;
    w = next;
  }
}

TEST(ControlLoopMath, ReusedReweighterMatchesAFreshOneBitForBit) {
  // The loop keeps one Reweighter for the whole run. Its reused buffers,
  // the cached floored-uniform vector included, must carry nothing from
  // one step into the next, even when the tree count or floor changes.
  sim::Rng rng(77);
  Reweighter reused;
  std::vector<double> w;
  for (int it = 0; it < 300; ++it) {
    const std::size_t n = it < 100 ? 4 : it < 200 ? 2 + it % 7 : 8;
    ControlLoopConfig cfg;
    cfg.min_weight = (it / 50) % 2 == 0 ? 0.02 : 0.05;
    cfg.horizon = it % 3 == 0 ? 0 : 4;
    std::vector<TreeSignal> sig(n);
    for (TreeSignal& s : sig) {
      s.drop_rate = rng.below(4) == 0 ? 0.3 * rng.uniform() : 0.0;
      s.depth_frac = rng.uniform();
      s.util = rng.uniform();
      s.load_share = 1.0 / static_cast<double>(n);
    }
    if (w.size() != n) w.assign(n, 1.0 / static_cast<double>(n));
    std::vector<double> got;
    reused.step(w, sig, cfg, got);
    EXPECT_EQ(got, step(w, sig, cfg)) << "iteration " << it;
    w = got;
  }
}

TEST(ControlLoopMath, HealthyFabricConvergesToUniform) {
  ControlLoopConfig cfg;
  // Zero signals everywhere — an idle-but-healthy fabric. Start from a
  // heavily skewed vector (as if a long outage just healed).
  const std::vector<TreeSignal> sig(4);
  for (std::uint32_t horizon : {0u, 4u}) {
    cfg.horizon = horizon;
    std::vector<double> w = {0.70, 0.10, 0.10, 0.10};
    for (int it = 0; it < 100; ++it) w = step(w, sig, cfg);
    for (double v : w) {
      EXPECT_NEAR(v, 0.25, 0.01) << "horizon " << horizon;
    }
  }
}

TEST(ControlLoopMath, PersistentlyHotSpineMonotonicallyLosesWeight) {
  ControlLoopConfig cfg;
  std::vector<TreeSignal> sig(4);
  sig[0].drop_rate = 0.30;  // tree 0's spine is sick, everyone else healthy
  sig[0].util = 1.0;
  for (auto& s : sig) s.load_share = 0.25;
  for (std::uint32_t horizon : {0u, 4u}) {
    cfg.horizon = horizon;
    std::vector<double> w(4, 0.25);
    double prev0 = w[0];
    for (int it = 0; it < 60; ++it) {
      w = step(w, sig, cfg);
      EXPECT_LE(w[0], prev0 + kEps)
          << "horizon " << horizon << " iteration " << it;
      prev0 = w[0];
    }
    // It must actually have lost most of its weight, but never go below
    // the probe-traffic floor.
    EXPECT_LT(w[0], 0.10);
    EXPECT_GE(w[0], floor_for(cfg, 4) - kEps);
  }
}

// ---------------------------------------------------------------------------
// Spec round-trip.

TEST(ControlLoopSpec, RoundTripsThroughSpecAndParse) {
  ControlLoopConfig cfg;
  cfg.enabled = true;
  cfg.period = 5 * sim::kMillisecond;
  cfg.gain = 0.75;
  cfg.max_delta = 0.10;
  cfg.deadband = 0.05;
  cfg.min_weight = 0.01;
  cfg.horizon = 2;
  cfg.stale_after_periods = 3;
  ControlLoopConfig back;
  ASSERT_TRUE(ControlLoopConfig::parse(cfg.spec(), &back));
  EXPECT_TRUE(back.enabled);
  EXPECT_EQ(back.period, cfg.period);
  EXPECT_EQ(back.spec(), cfg.spec());
}

TEST(ControlLoopSpec, RejectsMalformedAndOutOfRangeSpecs) {
  ControlLoopConfig cfg;
  EXPECT_FALSE(ControlLoopConfig::parse("", &cfg));
  EXPECT_FALSE(ControlLoopConfig::parse("nonsense", &cfg));
  EXPECT_FALSE(ControlLoopConfig::parse("p0:g0.50:d0.25:b0.020:f0.020:h4:a4",
                                        &cfg));  // period must be > 0
  EXPECT_FALSE(ControlLoopConfig::parse("p5000:g1.50:d0.25:b0.020:f0.020:h4:a4",
                                        &cfg));  // gain > 1
  EXPECT_FALSE(ControlLoopConfig::parse("p5000:g0.50:d0.25:b0.020:f0.020:h4:a0",
                                        &cfg));  // stale periods must be >= 1
  EXPECT_FALSE(ControlLoopConfig::parse(
      "p5000:g0.50:d0.25:b0.020:f0.020:h4:a4trailing", &cfg));
}

TEST(ControlLoopSpec, ScenarioSpecCarriesCtlTokenOnlyWhenEnabled) {
  check::Scenario sc;
  sc.flows = {{0, 2, 100'000}};
  EXPECT_EQ(sc.to_string().find("ctl="), std::string::npos);

  ASSERT_TRUE(ControlLoopConfig::parse("p5000:g0.50:d0.25:b0.020:f0.020:h4:a4",
                                       &sc.ctl));
  const std::string spec = sc.to_string();
  EXPECT_NE(spec.find("ctl=p5000:g0.50:d0.25:b0.020:f0.020:h4:a4"),
            std::string::npos)
      << spec;
  check::Scenario parsed;
  std::string err;
  ASSERT_TRUE(check::Scenario::parse(spec, &parsed, &err)) << err;
  EXPECT_TRUE(parsed.ctl.enabled);
  EXPECT_EQ(parsed.to_string(), spec);
}

TEST(ControlLoopSpec, GeneratorDrawsCtlOnAFractionOfSeeds) {
  int enabled = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const check::Scenario sc = check::Scenario::generate(seed);
    if (!sc.ctl.enabled) continue;
    ++enabled;
    // Every drawn config must survive the one-line spec round-trip.
    check::Scenario parsed;
    std::string err;
    ASSERT_TRUE(check::Scenario::parse(sc.to_string(), &parsed, &err))
        << "seed " << seed << ": " << err;
    EXPECT_EQ(parsed.to_string(), sc.to_string());
  }
  // The draw is 1-in-4; across 200 seeds a count far outside the binomial
  // bulk means the forked stream broke.
  EXPECT_GT(enabled, 20);
  EXPECT_LT(enabled, 90);
}

// ---------------------------------------------------------------------------
// Push memoization (the per-failure-event recompute fix).

TEST(ControlLoopMemo, RedundantPushesSkipTheRecompute) {
  harness::ExperimentConfig cfg;
  harness::Experiment ex(cfg);
  Controller& ctl = ex.ctl();
  ASSERT_EQ(ctl.schedule_recomputes(), 0u);

  // build_schedules() seeded the memo: pushes with unchanged state skip.
  ctl.request_weighted_push();
  ctl.request_weighted_push();
  EXPECT_EQ(ctl.schedule_recomputes(), 0u);
  EXPECT_GE(ctl.schedule_recomputes_skipped(), 2u);

  // New weights bump the epoch: exactly one recompute, the duplicate skips.
  ctl.set_tree_weights({0.1, 0.3, 0.3, 0.3});
  ctl.request_weighted_push();
  ctl.request_weighted_push();
  EXPECT_EQ(ctl.schedule_recomputes(), 1u);

  // Re-setting the identical vector is a no-op (idempotent duplicate push).
  ctl.set_tree_weights({0.1, 0.3, 0.3, 0.3});
  ctl.request_weighted_push();
  EXPECT_EQ(ctl.schedule_recomputes(), 1u);
}

TEST(ControlLoopMemo, UnchangedFailureSetSkipsTheRecompute) {
  harness::ExperimentConfig cfg;
  harness::Experiment ex(cfg);
  Controller& ctl = ex.ctl();
  const net::SwitchId leaf0 = cfg.spines;
  const Controller::FailureTimeline tl =
      ctl.schedule_link_failure(leaf0, 0, 0, 1 * sim::kMillisecond);
  ex.sim().run_until(tl.weighted + sim::kMillisecond);
  const std::uint64_t after_failure = ctl.schedule_recomputes();
  EXPECT_GE(after_failure, 1u);

  // The failure set has not changed since the weighted push landed; a
  // repeat push (re-fired reaction, duplicated control frame) must skip.
  ctl.request_weighted_push();
  ctl.request_weighted_push();
  EXPECT_EQ(ctl.schedule_recomputes(), after_failure);
  EXPECT_GE(ctl.schedule_recomputes_skipped(), 2u);
}

TEST(ControlLoopMemo, PairWeightOverridesInvalidateTheMemo) {
  harness::ExperimentConfig cfg;
  harness::Experiment ex(cfg);
  Controller& ctl = ex.ctl();
  // set_pair_weights writes one pair's map directly behind the memo's
  // back; the next push must recompute rather than trust the stale key.
  ctl.set_pair_weights(0, 4, {0.25, 0.5, 0.25, 0.0});
  ctl.request_weighted_push();
  EXPECT_EQ(ctl.schedule_recomputes(), 1u);
}

TEST(ControlLoopMemo, DroppedPushDoesNotPoisonTheMemo) {
  harness::ExperimentConfig cfg;
  harness::Experiment ex(cfg);
  Controller& ctl = ex.ctl();
  Controller::ControlFault fault;
  fault.push_drop_probability = 1.0;
  ctl.set_control_fault(fault);
  ctl.set_tree_weights({0.4, 0.2, 0.2, 0.2});
  ctl.request_weighted_push();  // dropped: vSwitch maps keep old schedules
  EXPECT_EQ(ctl.schedule_recomputes(), 0u);

  // The drop must not have recorded the new epoch as "applied": once the
  // control plane heals, the retry must actually recompute.
  ctl.clear_control_fault();
  ctl.request_weighted_push();
  EXPECT_EQ(ctl.schedule_recomputes(), 1u);
}

// ---------------------------------------------------------------------------
// The running loop.

TEST(ControlLoopRuntime, GrayLinkDrainsWeightFromItsTree) {
  harness::ExperimentConfig cfg;
  cfg.control_loop.enabled = true;
  cfg.control_loop.period = 5 * sim::kMillisecond;
  // Gilbert-Elliott burst loss on leaf0<->spine0 (leaf 0 is switch
  // `spines`), never reported as a down event — invisible to the static
  // controller, visible to the loop through the drop telemetry.
  cfg.fault_plan = "degrade@20ms leaf=" + std::to_string(cfg.spines) +
                   " spine=0 group=0 loss_bad=0.35 p_gb=0.02 p_bg=0.10";
  harness::Experiment ex(cfg);
  for (const auto& [s, d] : workload::stride_pairs(16, 4)) {
    ex.add_elephant(s, d, 0);
  }
  ex.sim().run_until(150 * sim::kMillisecond);

  ControlLoop* loop = ex.control_loop();
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->ticks(), 20u);
  EXPECT_GT(loop->pushes(), 0u);
  double min_w0 = 1.0;
  const std::size_t trees = loop->weights().size();
  const std::vector<double>& hw = loop->history_weights();
  ASSERT_EQ(hw.size(), loop->history().size() * trees);
  for (std::size_t i = 0; i < hw.size(); i += trees) {
    EXPECT_NEAR(sum({hw.begin() + i, hw.begin() + i + trees}), 1.0, 1e-6);
    min_w0 = std::min(min_w0, hw[i]);
  }
  // The sick tree must have been squeezed measurably below uniform but
  // never under the probe floor.
  EXPECT_LT(min_w0, 0.23);
  EXPECT_GE(min_w0, cfg.control_loop.min_weight - kEps);
}

TEST(ControlLoopRuntime, StaleReportsAreWithheldFromTheSignals) {
  harness::ExperimentConfig cfg;
  cfg.control_loop.enabled = true;
  cfg.control_loop.period = 5 * sim::kMillisecond;
  cfg.control_loop.stale_after_periods = 4;
  // Every report is delayed well past the staleness window: the loop must
  // count the skips and keep its uniform belief instead of acting on a
  // 30 ms-old picture of the fabric.
  cfg.fault_plan = "ctl_fault@0us delay=30ms";
  harness::Experiment ex(cfg);
  ex.sim().run_until(100 * sim::kMillisecond);

  ControlLoop* loop = ex.control_loop();
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->ticks(), 0u);
  EXPECT_GT(loop->stale_skips(), 0u);
  for (double w : loop->weights()) EXPECT_NEAR(w, 0.25, 1e-9);
  EXPECT_EQ(loop->pushes(), 0u);
}

TEST(ControlLoopRuntime, DisabledConfigLeavesTheStaticControllerAlone) {
  check::Scenario sc = check::Scenario::generate(0);
  sc.ctl = ControlLoopConfig{};
  check::ScenarioRun run(sc);
  EXPECT_EQ(run.experiment().control_loop(), nullptr);
  EXPECT_EQ(sc.to_string().find("ctl="), std::string::npos);
}

TEST(ControlLoopRuntime, ClosedLoopScenarioReplaysByteIdentically) {
  // A fig19-style closed-loop run: gray link + heal under the loop, on the
  // asymmetric fabric. The digest covers the full simulation state
  // including the loop's weight trajectory; two runs must agree exactly.
  check::Scenario sc;
  sc.seed = 21;
  sc.scheme = harness::Scheme::kPresto;
  sc.topo = net::TopologyKind::kAsymClos;
  sc.flows = {{0, 2, 400'000}, {1, 3, 400'000}, {2, 0, 400'000}};
  sc.fault_units = {
      "degrade@5ms leaf=2 spine=0 group=0 loss_bad=0.30 p_gb=0.02 "
      "p_bg=0.10;heal@40ms leaf=2 spine=0 group=0"};
  ASSERT_TRUE(ControlLoopConfig::parse("p5000:g0.50:d0.25:b0.020:f0.020:h4:a4",
                                       &sc.ctl));
  sc.cap = 100 * sim::kMillisecond;

  auto digest_of = [&sc] {
    check::ScenarioRun run(sc);
    run.sim().run_until(sc.cap);
    return run.state_digest();
  };
  const std::uint64_t first = digest_of();
  EXPECT_EQ(first, digest_of());

  // The loop must also have left a trace (this scenario pushes weights).
  check::ScenarioRun run(sc);
  run.sim().run_until(sc.cap);
  ASSERT_NE(run.experiment().control_loop(), nullptr);
  EXPECT_GT(run.experiment().control_loop()->ticks(), 0u);
}

}  // namespace
}  // namespace presto::controller
