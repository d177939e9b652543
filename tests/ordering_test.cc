// Property tests for the kOrdering oracle (ISSUE 9): schemes whose registry
// row claims fault-free in-order delivery are held to it across a wide fuzz
// seed range, and a planted scheme that falsely makes the claim (WildStripe:
// Sprinklers minus the ACK gate) is caught — proving the oracle fires.
#include <gtest/gtest.h>

#include <string>

#include "check/scenario.h"
#include "lb/registry.h"

namespace presto::check {
namespace {

/// Generated scenario forced onto `scheme` with faults and planted bugs
/// stripped, so the ordering oracle stays armed (reroutes legitimately race
/// in-flight frames) and the run must be squeaky clean.
Scenario ordered_scenario(std::uint64_t seed, harness::Scheme scheme) {
  Scenario sc = Scenario::generate(seed);
  sc.scheme = scheme;
  sc.fault_units.clear();
  sc.bug.clear();
  return sc;
}

TEST(Ordering, SprinklersIsReorderingFreeAcross200FuzzSeeds) {
  // The acceptance gate: the ACK-gated rotation must hold in-order delivery
  // over the generator's whole variety — every topology kind (clos, asym,
  // oversub, mesh), workload mix, and fabric size it draws.
  ASSERT_TRUE(lb::SchemeRegistry::instance()
                  .info(harness::Scheme::kSprinklers)
                  .reordering_free);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Scenario sc = ordered_scenario(seed, harness::Scheme::kSprinklers);
    const RunOutcome out = run_scenario(sc);
    ASSERT_TRUE(out.ok) << "seed " << seed << " spec " << sc.to_string()
                        << "\n" << out.report;
    ASSERT_TRUE(out.drained) << "seed " << seed;
  }
}

TEST(Ordering, EcmpSingleLabelPathsStayInOrder) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Scenario sc = ordered_scenario(seed, harness::Scheme::kEcmp);
    const RunOutcome out = run_scenario(sc);
    ASSERT_TRUE(out.ok) << "seed " << seed << "\n" << out.report;
  }
}

TEST(Ordering, PlantedWildStripeTripsTheOracle) {
  // WildStripe claims reordering_free in its registry row but rotates labels
  // with bytes still in flight; on the asymmetric fabric consecutive stripes
  // ride paths of different speed and overtake each other. If this test ever
  // passes without a kOrdering violation the oracle has gone dead.
  Scenario sc;
  sc.seed = 1;
  sc.scheme = harness::Scheme::kWildStripe;
  sc.topo = net::TopologyKind::kAsymClos;
  sc.flows = {{0, 2, 2'000'000}};
  const RunOutcome out = run_scenario(sc);
  ASSERT_FALSE(out.ok);
  EXPECT_TRUE(out.has_kind(OracleKind::kOrdering)) << out.report;
  EXPECT_NE(out.report.find("ordering"), std::string::npos) << out.report;
}

TEST(Ordering, SprayingSchemesAreNotHeldToTheClaim) {
  // Presto reorders by design (that is what Presto GRO absorbs); its registry
  // row does not claim reordering_free, so the oracle must stay disarmed and
  // the run clean on the same fabric that trips WildStripe.
  Scenario sc;
  sc.seed = 1;
  sc.scheme = harness::Scheme::kPresto;
  sc.topo = net::TopologyKind::kAsymClos;
  sc.flows = {{0, 2, 2'000'000}};
  const RunOutcome out = run_scenario(sc);
  EXPECT_TRUE(out.ok) << out.report;
  EXPECT_FALSE(out.has_kind(OracleKind::kOrdering));
}

TEST(Ordering, FaultUnitsDisarmTheOracle) {
  // A reroute puts frames from the old and new tree in flight concurrently,
  // so ordering is only a fault-free invariant; with fault units present the
  // oracle must not fire even for a reordering-free scheme.
  Scenario sc;
  sc.seed = 11;
  sc.scheme = harness::Scheme::kSprinklers;
  sc.flows = {{0, 2, 1'000'000}, {1, 3, 500'000}};
  sc.fault_units = {"down@10ms leaf=2 spine=0; up@40ms leaf=2 spine=0"};
  const RunOutcome out = run_scenario(sc);
  EXPECT_FALSE(out.has_kind(OracleKind::kOrdering)) << out.report;
  EXPECT_TRUE(out.ok) << out.report;
}

TEST(Ordering, GoBackNResendRunningPastSndHighIsNotFresh) {
  // Seed 8286's minimal reproducer (fuzz_sim --seed 8286). After an RTO,
  // go-back-N resends a segment that runs past snd_high, so the sender
  // marks the whole segment fresh although its head carries bytes already
  // sent once. The checker judges freshness from its own injection record:
  // a frame injected below the flow's injected high-water mark is a resend,
  // and an ECMP flow's resends may legitimately land behind the frontier.
  Scenario sc;
  std::string err;
  ASSERT_TRUE(Scenario::parse(
      "seed=8286 scheme=ecmp spines=2 leaves=2 hpl=2 gamma=1 buf=409600 "
      "suspicion=0 cap_us=625000 "
      "flows=1-3:1171576,1-3:1206385,0-3:23438,3-1:352141,1-3:304631,"
      "0-3:1042263 rpcs=3-0:512x1,0-2:5978x2 faults=- bug=-",
      &sc, &err))
      << err;
  const RunOutcome out = run_scenario(sc);
  EXPECT_FALSE(out.has_kind(OracleKind::kOrdering)) << out.report;
  EXPECT_TRUE(out.ok) << out.report;
}

}  // namespace
}  // namespace presto::check
