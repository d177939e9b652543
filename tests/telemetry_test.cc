// Telemetry tests: registry/snapshot semantics, JSON emission, and the
// determinism guarantee — same seed + config => the same executed events,
// testbed state and snapshot.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "harness/runners.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/probes.h"
#include "test_util.h"

namespace presto::telemetry {
namespace {

TEST(Registry, InstrumentsAreStableAcrossLookups) {
  Registry r;
  Counter& c = r.counter("x");
  c.inc(3);
  EXPECT_EQ(r.counter("x").value(), 3u);
  r.gauge("g").set(1.5);
  EXPECT_EQ(r.gauge("g").value(), 1.5);
}

TEST(Histogram, BucketOfEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-4), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 64)), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(-std::numeric_limits<double>::infinity()),
            0u);
}

/// The shift loop bucket_of used before std::bit_width, for values in
/// [1, 2^64) where its cast is defined.
std::size_t shift_loop_bucket(double v) {
  if (!(v >= 1)) return 0;
  std::size_t i = 1;
  auto u = static_cast<std::uint64_t>(v);
  while (u > 1 && i + 1 < Histogram::kBuckets) {
    u >>= 1;
    ++i;
  }
  return i;
}

TEST(Histogram, BucketOfMatchesTheShiftLoop) {
  for (const double v : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(Histogram::bucket_of(v), shift_loop_bucket(v)) << v;
  }
  for (int k = 0; k < 64; ++k) {
    const double p = std::ldexp(1.0, k);
    // Above 2^53 the +-1 neighbours round to 2^k itself: still below 2^64.
    for (const double v : {p - 1, p, p + 1}) {
      EXPECT_EQ(Histogram::bucket_of(v), shift_loop_bucket(v))
          << "k=" << k << " v=" << v;
    }
  }
}

TEST(Histogram, TracksCountSumMinMaxMean) {
  Histogram h;
  h.add(2);
  h.add(10);
  h.add(6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 18);
  EXPECT_EQ(h.min(), 2);
  EXPECT_EQ(h.max(), 10);
  EXPECT_EQ(h.mean(), 6);
}

TEST(Snapshot, MergeSumsCountersAndKeepsMaxGauge) {
  Snapshot a, b;
  a.counters["c"] = 2;
  b.counters["c"] = 3;
  b.counters["only_b"] = 7;
  a.gauges["g"] = 1.0;
  b.gauges["g"] = 4.0;
  a.merge(b);
  EXPECT_EQ(a.counters["c"], 5u);
  EXPECT_EQ(a.counters["only_b"], 7u);
  EXPECT_EQ(a.gauges["g"], 4.0);
}

TEST(Snapshot, HistogramMergeCombinesBuckets) {
  HistogramSnapshot a, b;
  a.count = 2;
  a.sum = 6;
  a.min = 1;
  a.max = 5;
  a.buckets = {0, 1, 0, 1};
  b.count = 1;
  b.sum = 9;
  b.min = 9;
  b.max = 9;
  b.buckets = {0, 0, 0, 0, 1};
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 15);
  EXPECT_EQ(a.min, 1);
  EXPECT_EQ(a.max, 9);
  ASSERT_EQ(a.buckets.size(), 5u);
  EXPECT_EQ(a.buckets[1], 1u);
  EXPECT_EQ(a.buckets[4], 1u);
}

TEST(Session, EagerlyRegistersFullKeySet) {
  TelemetryConfig cfg;
  cfg.metrics = true;
  sim::Simulation sim;
  Session s(cfg, sim);
  const Snapshot snap = s.snapshot();
  // One representative per layer: net, offload, core, tcp, controller.
  EXPECT_TRUE(snap.counters.count("net.port.enqueued_packets"));
  EXPECT_TRUE(snap.counters.count("offload.gro.merges"));
  EXPECT_TRUE(snap.counters.count("core.flowcell.cells"));
  EXPECT_TRUE(snap.counters.count("tcp.retx.fast"));
  EXPECT_TRUE(snap.counters.count("controller.schedules_set"));
}

TEST(JsonWriter, EmitsWellFormedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("a\"b\n");
  w.key("n");
  w.value(std::uint64_t{42});
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.end_array();
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_NE(doc.find("\"a\\\"b\\n\""), std::string::npos);
  EXPECT_NE(doc.find("\"n\": 42"), std::string::npos);
  EXPECT_NE(doc.find("1.5"), std::string::npos);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

// Same seed + config => the whole stack replays identically: the same
// events execute, the testbed ends in the same state, and the metrics
// snapshot is identical run to run.
class TraceDeterminismTest
    : public ::testing::TestWithParam<harness::Scheme> {};

test::Replay metered_run(harness::Scheme scheme) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.seed = 1234;
  cfg.telemetry.metrics = true;
  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : workload::stride_pairs(4, 2)) {
    els.push_back(&ex.add_elephant(s, d, 0));
  }
  ex.sim().run_until(60 * sim::kMillisecond);
  std::uint64_t delivered = 0;
  for (auto* e : els) delivered += e->delivered();
  EXPECT_GT(delivered, 0u);
  return test::replay_of(ex);
}

TEST_P(TraceDeterminismTest, SameSeedSameTrace) {
  const test::Replay a = metered_run(GetParam());
  const test::Replay b = metered_run(GetParam());
  EXPECT_GT(a.executed, 0u);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.snap.counters, b.snap.counters);
  EXPECT_EQ(a.snap.gauges, b.snap.gauges);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TraceDeterminismTest,
    ::testing::Values(harness::Scheme::kEcmp, harness::Scheme::kMptcp,
                      harness::Scheme::kPresto, harness::Scheme::kOptimal,
                      harness::Scheme::kFlowlet, harness::Scheme::kPrestoEcmp,
                      harness::Scheme::kPerPacket),
    [](const auto& info) {
      std::string n = harness::scheme_name(info.param);
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) { return !isalnum(c); }),
              n.end());
      return n;
    });

TEST(Telemetry, DisabledExperimentReturnsEmptySnapshot) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  harness::Experiment ex(cfg);
  ex.add_elephant(0, 2, 0);
  ex.sim().run_until(20 * sim::kMillisecond);
  EXPECT_TRUE(ex.telemetry_snapshot().empty());
  EXPECT_EQ(ex.telemetry(), nullptr);
}

}  // namespace
}  // namespace presto::telemetry
