// Golden pins for the closed-loop control plane's outputs (DESIGN.md
// §15.2, §17.1). Each scenario runs the telemetry plane and the control
// loop to its cap, then pins the FNV-1a hash of the loop's schedule
// history, of the fabric_health document and of the scenario's state
// digest (which folds every monitor gauge, the collector's latest reports
// and hotspot streaks, and the loop's weights and peak-holds). The
// replay tests compare two runs of one build; these constants hold the
// outputs fixed across commits, so a shortcut in the monitor's window
// close, the collector's hand-off or the control tick that changes any
// output shows up here. The constants were captured before those
// shortcuts existed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/scenario.h"
#include "controller/control_loop.h"
#include "golden_util.h"
#include "telemetry/fabric/plane.h"

namespace presto::testing {
namespace {

struct Pins {
  std::uint64_t history = 0;
  std::uint64_t health = 0;
  std::uint64_t digest = 0;
};

/// What the control plane went through, so each scenario can show it
/// exercises the paths it claims to.
struct Seen {
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t lost = 0;
  std::uint64_t stale_skips = 0;
  std::uint64_t pushes = 0;
};

Pins run_pins(const check::Scenario& sc, Seen* seen) {
  check::ScenarioRun run(sc);
  run.sim().run_until(sc.cap);
  harness::Experiment& ex = run.experiment();
  const controller::ControlLoop* loop = ex.control_loop();
  const telemetry::fabric::FabricCollector& coll =
      ex.fabric_plane()->collector();
  for (std::uint32_t id = 0; id < coll.switch_count(); ++id) {
    const auto* a = coll.accounting(id);
    seen->duplicates += a->duplicates;
    seen->reordered += a->reordered;
    seen->lost += a->lost;
  }
  seen->stale_skips = loop->stale_skips();
  seen->pushes = loop->pushes();
  Pins p;
  p.history = fnv1a(loop->history_json());
  // Rendering scrapes every monitor; the second render at the same
  // instant closes a zero-length window (the EWMA holds, the HWM decays).
  const std::string first = ex.fabric_health_json();
  p.health = fnv1a(ex.fabric_health_json(), fnv1a(first));
  p.digest = run.state_digest();
  return p;
}

Seen expect_pins(const check::Scenario& sc, const Pins& want) {
  Seen seen;
  const Pins got = run_pins(sc, &seen);
  EXPECT_EQ(got.history, want.history)
      << std::hex << "history 0x" << got.history;
  EXPECT_EQ(got.health, want.health) << std::hex << "health 0x" << got.health;
  EXPECT_EQ(got.digest, want.digest) << std::hex << "digest 0x" << got.digest;
  return seen;
}

TEST(ControlPlaneGolden, AsymGrayLinkClosedLoop) {
  // The scenario of ControlLoopRuntime.ClosedLoopScenarioReplaysByte-
  // Identically: a gray link on the asymmetric fabric, healed mid-run.
  // Its flows finish before the link turns gray, so the loop reads a
  // fabric that goes quiet after its first window.
  check::Scenario sc;
  sc.seed = 21;
  sc.scheme = harness::Scheme::kPresto;
  sc.topo = net::TopologyKind::kAsymClos;
  sc.flows = {{0, 2, 400'000}, {1, 3, 400'000}, {2, 0, 400'000}};
  sc.fault_units = {
      "degrade@5ms leaf=2 spine=0 group=0 loss_bad=0.30 p_gb=0.02 "
      "p_bg=0.10;heal@40ms leaf=2 spine=0 group=0"};
  ASSERT_TRUE(controller::ControlLoopConfig::parse(
      "p5000:g0.50:d0.25:b0.020:f0.020:h4:a4", &sc.ctl));
  sc.cap = 100 * sim::kMillisecond;
  expect_pins(sc, Pins{0xae0c757f9ce209f5ULL, 0x9b87e50f8d465c72ULL,
                       0xc549e6c8b78fbd79ULL});
}

TEST(ControlPlaneGolden, ClosLossyControlPlaneIdlesPastTheDecayHorizons) {
  // A gray leaf-spine link while the elephants run. Reports first ride
  // 12 ms of delay (past the 5 ms period and the 10 ms staleness window)
  // with drops and duplicates, then a 1 ms path, so the late frames of
  // the first fault land after newer ones (reordering).
  // The traffic ends within the first second; the loop then ticks on an
  // idle fabric for 11 s, past the ~2,080 windows the util EWMA needs to
  // reach its fixed point and the ~1,090 the HWM decay needs.
  check::Scenario sc;
  sc.seed = 33;
  sc.scheme = harness::Scheme::kPresto;
  sc.topo = net::TopologyKind::kClos;
  sc.spines = 4;
  sc.leaves = 4;
  sc.hosts_per_leaf = 2;
  sc.flows = {{0, 4, 4'000'000}, {3, 6, 4'000'000}, {5, 1, 2'000'000}};
  sc.rpcs = {{2, 7, 20'000, 40}};
  sc.fault_units = {
      "degrade@2ms leaf=4 spine=0 group=0 loss_bad=0.30 p_gb=0.02 "
      "p_bg=0.10;heal@70ms leaf=4 spine=0 group=0",
      "ctl_fault@5ms delay=12ms drop=0.3 dup=0.3;"
      "ctl_fault@40ms delay=1ms drop=0.2 dup=0.5;ctl_clear@90ms"};
  ASSERT_TRUE(controller::ControlLoopConfig::parse(
      "p5000:g0.50:d0.10:b0.010:f0.020:h4:a2", &sc.ctl));
  sc.cap = 12 * sim::kSecond;
  const Seen seen =
      expect_pins(sc, Pins{0xfc0aa5695bb9cef8ULL, 0x82b7cfea359ada9fULL,
                           0x2a87dfdbe8903b5aULL});
  EXPECT_GT(seen.duplicates, 0u);
  EXPECT_GT(seen.reordered, 0u);
  EXPECT_GT(seen.lost, 0u);
  EXPECT_GT(seen.stale_skips, 0u);
  EXPECT_GT(seen.pushes, 0u);
}

}  // namespace
}  // namespace presto::testing
