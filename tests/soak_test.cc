// Tests for the soak tier: replay-based checkpoints (epoch ladders must be
// bit-identical across runs and across resume), the slow-burn leak oracle,
// time-window shrinking, differential lock-step soaks, and the manifest's
// JSON round-trip.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "check/shrink.h"
#include "check/soak.h"
#include "lb/registry.h"

namespace presto::check {
namespace {

/// Workload with traffic alive past 150 ms of simulated time (RPC issues
/// are spaced 200 us apart), so a defect armed at 100 ms has frames to hit.
Scenario long_lived_scenario() {
  Scenario sc;
  sc.seed = 7;
  sc.scheme = harness::Scheme::kPresto;
  sc.flows = {{0, 1, 2'000'000}};
  sc.rpcs = {{0, 3, 20'000, 800}};
  sc.cap = 400 * sim::kMillisecond;
  return sc;
}

std::string temp_manifest_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("presto_soak_test_") + tag + ".json"))
      .string();
}

TEST(Soak, EpochLaddersAreDeterministic) {
  const Scenario sc = Scenario::generate(4);
  const SoakResult a = run_soak(sc);
  const SoakResult b = run_soak(sc);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  ASSERT_FALSE(a.epochs.empty());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].sim_time, b.epochs[i].sim_time) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].executed, b.epochs[i].executed) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].digest, b.epochs[i].digest) << "epoch " << i;
  }
  EXPECT_TRUE(a.outcome.ok) << a.outcome.report;
  EXPECT_TRUE(a.completed);
}

TEST(Soak, EventCountEpochsAdvanceTheWatermark) {
  Scenario sc = Scenario::generate(4);
  SoakOptions opt;
  opt.epoch_length = 0;  // switch to event-count epochs
  opt.epoch_events = 1'000;
  opt.max_epochs = 4;
  const SoakResult res = run_soak(sc, opt);
  ASSERT_GE(res.epochs.size(), 2u);
  for (std::size_t i = 1; i < res.epochs.size(); ++i) {
    EXPECT_GT(res.epochs[i].executed, res.epochs[i - 1].executed);
  }
}

TEST(Soak, MaxEpochsStopsEarlyWithoutLivenessNoise) {
  // Stopping mid-run with events still queued is how bisection probes work;
  // it must not read as a liveness violation.
  Scenario sc = Scenario::generate(4);
  SoakOptions opt;
  opt.max_epochs = 1;
  const SoakResult res = run_soak(sc, opt);
  EXPECT_EQ(res.epochs.size(), 1u);
  EXPECT_FALSE(res.completed);
  EXPECT_TRUE(res.outcome.ok) << res.outcome.report;
}

TEST(Soak, OnEpochReturningFalseAborts) {
  Scenario sc = Scenario::generate(4);
  SoakOptions opt;
  opt.on_epoch = [](const EpochRecord& rec) { return rec.epoch < 2; };
  const SoakResult res = run_soak(sc, opt);
  EXPECT_TRUE(res.aborted);
  EXPECT_EQ(res.epochs.size(), 2u);
}

TEST(Soak, SlowBurnEaterInvisibleEarlyCaughtAtEpochResolution) {
  // The planted defect arms at 100 ms: the first two 50 ms epochs must
  // audit clean, and the leak oracle must flag the eaten frame at the
  // first boundary where it has aged past leak_age.
  Scenario sc = long_lived_scenario();
  sc.bug = "eat@100000us:12";
  const SoakResult res = run_soak(sc);
  ASSERT_FALSE(res.outcome.ok);
  EXPECT_TRUE(res.outcome.has_kind(OracleKind::kLeak)) << res.outcome.report;
  ASSERT_GE(res.first_bad_epoch, 3u);
  EXPECT_EQ(res.epochs[0].violations, 0u);
  EXPECT_EQ(res.epochs[1].violations, 0u);
}

TEST(Soak, TimeWindowShrinksSlowBurnToTwoEpochsOrFewer)
{
  Scenario sc = long_lived_scenario();
  sc.bug = "eat@100000us:12";
  SoakOptions opt;
  const SoakResult res = run_soak(sc, opt);
  ASSERT_FALSE(res.outcome.ok);

  const TimeWindow w =
      shrink_time(sc, opt, res.outcome.first_kind, res.first_bad_epoch);
  ASSERT_TRUE(w.valid);
  EXPECT_LE(w.bad_epoch - w.clean_epoch, 2u);
  EXPECT_LE(w.bad_epoch, res.first_bad_epoch);
  // The defect arms at 100 ms = end of epoch 2, so the narrowed window
  // must not claim the violation reproduces any earlier than that.
  EXPECT_GE(w.bad_epoch, 3u);
  EXPECT_GT(w.probes, 0u);
}

TEST(Soak, ItemShrinkWithSoakRunnerKeepsLeakReproducible) {
  Scenario sc = long_lived_scenario();
  sc.bug = "eat@100000us:12";
  SoakOptions opt;
  const SoakResult res = run_soak(sc, opt);
  ASSERT_FALSE(res.outcome.ok);

  SoakOptions probe = opt;
  probe.max_epochs = res.first_bad_epoch;
  probe.audit_every = 0;  // single audit at the final boundary
  ShrinkOptions sopt;
  sopt.runner = [probe](const Scenario& cand) {
    return run_soak(cand, probe).outcome;
  };
  const ShrinkResult sres = shrink(sc, res.outcome.first_kind, sopt);
  EXPECT_TRUE(sres.shrunk);
  EXPECT_FALSE(sres.outcome.ok);
  EXPECT_TRUE(sres.outcome.has_kind(OracleKind::kLeak)) << sres.outcome.report;
  // The elephant flow is not needed to reproduce an RPC-frame eater.
  EXPECT_TRUE(sres.minimal.flows.empty());
}

TEST(Soak, ManifestRoundTripsThroughJson) {
  Scenario sc = long_lived_scenario();
  sc.bug = "eat@100000us:12";
  SoakOptions opt;
  const std::string path = temp_manifest_path("roundtrip");

  SoakManifest man;
  man.scenario = sc.to_string();
  man.epoch_length = opt.epoch_length;
  man.epoch_events = opt.epoch_events;
  man.audit_every = opt.audit_every;
  man.leak_age = opt.leak_age;
  opt.on_epoch = [&man](const EpochRecord& rec) {
    man.epochs.push_back(rec);
    return true;
  };
  const SoakResult res = run_soak(sc, opt);
  man.status = res.outcome.ok ? "clean" : "violation";
  man.first_bad_epoch = res.first_bad_epoch;
  man.report = res.outcome.report;

  std::string err;
  ASSERT_TRUE(man.save(path, &err)) << err;
  SoakManifest back;
  ASSERT_TRUE(SoakManifest::load(path, &back, &err)) << err;
  std::remove(path.c_str());

  EXPECT_EQ(back.scenario, man.scenario);
  EXPECT_EQ(back.epoch_length, man.epoch_length);
  EXPECT_EQ(back.epoch_events, man.epoch_events);
  EXPECT_EQ(back.audit_every, man.audit_every);
  EXPECT_EQ(back.leak_age, man.leak_age);
  EXPECT_EQ(back.status, man.status);
  EXPECT_EQ(back.first_bad_epoch, man.first_bad_epoch);
  ASSERT_EQ(back.epochs.size(), man.epochs.size());
  for (std::size_t i = 0; i < man.epochs.size(); ++i) {
    EXPECT_EQ(back.epochs[i].epoch, man.epochs[i].epoch);
    EXPECT_EQ(back.epochs[i].sim_time, man.epochs[i].sim_time);
    EXPECT_EQ(back.epochs[i].executed, man.epochs[i].executed);
    EXPECT_EQ(back.epochs[i].digest, man.epochs[i].digest);
    EXPECT_EQ(back.epochs[i].delivered_bytes, man.epochs[i].delivered_bytes);
    EXPECT_EQ(back.epochs[i].violations, man.epochs[i].violations);
    EXPECT_EQ(back.epochs[i].audited, man.epochs[i].audited);
  }
}

TEST(Soak, ManifestStringsRoundTripWithEscapes) {
  // Every escape the writer emits: a quote, a backslash, a newline, a tab
  // and a control byte.
  const std::string odd = "q\"b\\n\nt\tc\x01 end";
  SoakManifest man;
  man.scenario = "seed=1 " + odd;
  man.report = "[oracle] " + odd + "\n";
  man.schemes = {odd};
  man.disagreements.push_back(Disagreement{3, odd, 10, 20});
  man.epochs.push_back(EpochRecord{1, sim::kMillisecond, 42,
                                   0xfedcba9876543210ULL, 7, 0, true});
  const std::string path = temp_manifest_path("escapes");
  std::string err;
  ASSERT_TRUE(man.save(path, &err)) << err;
  SoakManifest back;
  ASSERT_TRUE(SoakManifest::load(path, &back, &err)) << err;
  std::remove(path.c_str());

  EXPECT_EQ(back.scenario, man.scenario);
  EXPECT_EQ(back.report, man.report);
  ASSERT_EQ(back.schemes.size(), 1u);
  EXPECT_EQ(back.schemes[0], odd);
  ASSERT_EQ(back.disagreements.size(), 1u);
  EXPECT_EQ(back.disagreements[0].scheme, odd);
  EXPECT_EQ(back.disagreements[0].best, 20u);
  ASSERT_EQ(back.epochs.size(), 1u);
  EXPECT_EQ(back.epochs[0].digest, 0xfedcba9876543210ULL);
  EXPECT_EQ(back.epochs[0].sim_time, sim::kMillisecond);
  EXPECT_TRUE(back.epochs[0].audited);
}

TEST(Soak, ResumeReproducesIdenticalViolationWithMatchingDigests) {
  Scenario sc = long_lived_scenario();
  sc.bug = "eat@100000us:12";
  SoakOptions opt;

  SoakManifest man;
  man.scenario = sc.to_string();
  man.epoch_length = opt.epoch_length;
  man.epoch_events = opt.epoch_events;
  man.audit_every = opt.audit_every;
  man.leak_age = opt.leak_age;
  opt.on_epoch = [&man](const EpochRecord& rec) {
    man.epochs.push_back(rec);
    return true;
  };
  const SoakResult fresh = run_soak(sc, opt);
  ASSERT_FALSE(fresh.outcome.ok);

  // Restore = replay-to-watermark: the resumed run must match every
  // recorded digest and land on the identical violation.
  const ResumeResult res = resume_soak(man);
  EXPECT_TRUE(res.digests_match) << res.mismatch;
  ASSERT_FALSE(res.soak.outcome.ok);
  EXPECT_EQ(res.soak.first_bad_epoch, fresh.first_bad_epoch);
  EXPECT_EQ(res.soak.outcome.kind_mask, fresh.outcome.kind_mask);
  EXPECT_EQ(res.soak.outcome.report, fresh.outcome.report);
  ASSERT_EQ(res.soak.epochs.size(), fresh.epochs.size());
  for (std::size_t i = 0; i < fresh.epochs.size(); ++i) {
    EXPECT_EQ(res.soak.epochs[i].digest, fresh.epochs[i].digest)
        << "epoch " << i;
  }
}

TEST(Soak, ResumeDetectsForeignLadder) {
  // A manifest whose ladder came from a *different* scenario must be
  // rejected: the digests cannot be trusted as checkpoints.
  Scenario sc = Scenario::generate(4);
  SoakOptions opt;
  SoakManifest man;
  man.scenario = sc.to_string();
  man.epoch_length = opt.epoch_length;
  man.epoch_events = opt.epoch_events;
  man.audit_every = opt.audit_every;
  man.leak_age = opt.leak_age;
  opt.on_epoch = [&man](const EpochRecord& rec) {
    man.epochs.push_back(rec);
    return true;
  };
  (void)run_soak(sc, opt);
  ASSERT_FALSE(man.epochs.empty());
  man.epochs[0].digest ^= 0x1;  // corrupt one checkpoint

  const ResumeResult res = resume_soak(man);
  EXPECT_FALSE(res.digests_match);
  EXPECT_NE(res.mismatch.find("epoch 1"), std::string::npos) << res.mismatch;
}

TEST(Soak, DifferentialCleanAcrossDefaultSchemes) {
  const Scenario sc = Scenario::generate(4);
  SoakOptions opt;
  const DiffResult res = run_differential_soak(sc, opt);
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_EQ(res.schemes_run.size(), 3u);
  ASSERT_EQ(res.per_scheme.size(), 3u);
  // Full quiesce: every scheme must have delivered exactly the same bytes.
  const std::uint64_t want = res.per_scheme[0].epochs.back().delivered_bytes;
  for (const SoakResult& sr : res.per_scheme) {
    EXPECT_EQ(sr.epochs.back().delivered_bytes, want);
  }
}

TEST(Soak, DifferentialFlagsSchemeWithPlantedEater) {
  // The eater destroys frames under every scheme, so cross-scheme delivered
  // bytes stay equal — but each per-scheme checker still carries its own
  // oracles, and the leak must surface through the differential driver.
  Scenario sc = long_lived_scenario();
  sc.bug = "eat@100000us:12";
  SoakOptions opt;
  DiffOptions dopt;
  dopt.schemes = {harness::Scheme::kPresto, harness::Scheme::kEcmp};
  const DiffResult res = run_differential_soak(sc, opt, dopt);
  EXPECT_FALSE(res.ok);
  bool any_leak = false;
  for (const SoakResult& sr : res.per_scheme) {
    any_leak = any_leak || sr.outcome.has_kind(OracleKind::kLeak);
  }
  EXPECT_TRUE(any_leak) << res.report;
}

TEST(Soak, DifferentialAllSchemesSweepIsClean) {
  // The registry-driven full sweep: every differential-safe scheme runs the
  // same scenario in lock-step and must agree byte-for-byte at quiesce. New
  // schemes join this test by registering — no soak change.
  const Scenario sc = Scenario::generate(4);
  SoakOptions opt;
  DiffOptions dopt;
  dopt.all_schemes = true;
  const DiffResult res = run_differential_soak(sc, opt, dopt);
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_TRUE(res.disagreements.empty());

  const std::vector<harness::Scheme> want =
      lb::SchemeRegistry::instance().differential_schemes();
  ASSERT_EQ(res.schemes_run.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(res.schemes_run[i], want[i]) << i;
  }
  const std::uint64_t bytes = res.per_scheme[0].epochs.back().delivered_bytes;
  EXPECT_GT(bytes, 0u);
  for (std::size_t i = 0; i < res.per_scheme.size(); ++i) {
    EXPECT_EQ(res.per_scheme[i].epochs.back().delivered_bytes, bytes)
        << lb::scheme_spec_id(res.schemes_run[i]);
  }
}

TEST(Soak, DifferentialSeededDivergenceRecordsDisagreements) {
  // Three congested elephants under zero tolerance: ECMP hash collisions
  // put it measurably behind Presto at 5 ms epoch boundaries, and every
  // flagged epoch lands in `disagreements` naming the laggard scheme.
  Scenario sc;
  sc.seed = 9;
  sc.flows = {{0, 2, 8'000'000}, {1, 3, 8'000'000}, {4, 6, 8'000'000}};
  sc.cap = 400 * sim::kMillisecond;
  sc.hosts_per_leaf = 4;
  SoakOptions opt;
  opt.epoch_length = 5 * sim::kMillisecond;
  opt.max_epochs = 10;
  DiffOptions dopt;
  dopt.schemes = {harness::Scheme::kPresto, harness::Scheme::kEcmp};
  dopt.tolerance = 0.0;
  dopt.min_gap_bytes = 1;
  const DiffResult res = run_differential_soak(sc, opt, dopt);
  ASSERT_FALSE(res.ok);
  ASSERT_FALSE(res.disagreements.empty());
  EXPECT_LE(res.disagreements.size(), DiffResult::kMaxDisagreements);
  EXPECT_EQ(res.disagreements.front().epoch, res.divergence_epoch);
  for (const Disagreement& d : res.disagreements) {
    EXPECT_TRUE(d.scheme == "presto" || d.scheme == "ecmp") << d.scheme;
    EXPECT_LT(d.delivered, d.best) << d.scheme << " epoch " << d.epoch;
  }

  // The disagreement ledger survives the manifest JSON round trip.
  SoakManifest man;
  man.scenario = sc.to_string();
  man.epoch_length = opt.epoch_length;
  for (harness::Scheme s : dopt.schemes) {
    man.schemes.emplace_back(lb::scheme_spec_id(s));
  }
  man.status = "violation";
  man.disagreements = res.disagreements;
  const std::string path = temp_manifest_path("disagreements");
  std::string err;
  ASSERT_TRUE(man.save(path, &err)) << err;
  SoakManifest back;
  ASSERT_TRUE(SoakManifest::load(path, &back, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(back.disagreements.size(), man.disagreements.size());
  for (std::size_t i = 0; i < man.disagreements.size(); ++i) {
    EXPECT_EQ(back.disagreements[i].epoch, man.disagreements[i].epoch);
    EXPECT_EQ(back.disagreements[i].scheme, man.disagreements[i].scheme);
    EXPECT_EQ(back.disagreements[i].delivered,
              man.disagreements[i].delivered);
    EXPECT_EQ(back.disagreements[i].best, man.disagreements[i].best);
  }
}

TEST(Soak, DifferentialZeroToleranceFlagsMidRunDivergence) {
  // With the tolerance floor removed, any mid-run delivered-bytes gap
  // between schemes trips the cross-scheme oracle; congested elephants give
  // Presto a mid-run edge over ECMP collisions.
  Scenario sc;
  sc.seed = 9;
  sc.flows = {{0, 2, 8'000'000}, {1, 3, 8'000'000}, {4, 6, 8'000'000}};
  sc.cap = 400 * sim::kMillisecond;
  sc.hosts_per_leaf = 4;
  SoakOptions opt;
  opt.epoch_length = 5 * sim::kMillisecond;
  opt.max_epochs = 10;
  DiffOptions dopt;
  dopt.schemes = {harness::Scheme::kPresto, harness::Scheme::kEcmp};
  dopt.tolerance = 0.0;
  dopt.min_gap_bytes = 1;
  const DiffResult res = run_differential_soak(sc, opt, dopt);
  if (!res.ok) {
    EXPECT_GT(res.divergence_epoch, 0u);
    EXPECT_NE(res.report.find("differential"), std::string::npos)
        << res.report;
  }
}

TEST(Shrink, DeadlineCutsSearchShortAndIsReported) {
  Scenario sc = Scenario::generate(0);
  sc.bug = "eat:40";  // reproduces under plain run_scenario
  ShrinkOptions opt;
  opt.deadline = std::chrono::milliseconds(1);
  opt.runner = [](const Scenario& cand) {
    // A deliberately slow runner: the deadline must stop the search after
    // a handful of candidates instead of the full budget.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return run_scenario(cand);
  };
  Scenario probe = sc;
  const RunOutcome out = run_scenario(probe);
  ASSERT_FALSE(out.ok);
  const ShrinkResult res = shrink(sc, out.first_kind, opt);
  EXPECT_TRUE(res.deadline_hit);
  EXPECT_LT(res.runs, ShrinkOptions{}.max_runs);
}

}  // namespace
}  // namespace presto::check
