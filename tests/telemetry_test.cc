// Telemetry tests: registry/snapshot semantics, JSON emission, and the
// determinism guarantee — same seed + config => byte-identical event trace.
#include <gtest/gtest.h>

#include "harness/runners.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/probes.h"
#include "telemetry/trace.h"

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
  a.trace_events = 10;
  b.trace_events = 5;
  a.merge(b);
  EXPECT_EQ(a.counters["c"], 5u);
  EXPECT_EQ(a.counters["only_b"], 7u);
  EXPECT_EQ(a.gauges["g"], 4.0);
  EXPECT_EQ(a.trace_events, 15u);
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

TEST(Tracer, CountsBeyondCapacity) {
  Tracer t(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    t.record(i, EventType::kEnqueue, 0, -1);
  }
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.total(), 5u);
  EXPECT_EQ(t.dropped(), 3u);
}

TEST(Tracer, KeepsTheOldestEventsAtTheWrapBoundary) {
  // The ring keeps the head of the run: events recorded exactly at capacity
  // and beyond are counted but not stored, and what *is* stored stays in
  // record order so serialize() is stable regardless of overflow.
  Tracer t(/*capacity=*/3);
  for (int i = 0; i < 3; ++i) t.record(i, EventType::kEnqueue, i, -1);
  t.record(3, EventType::kDrop, 3, -1);  // first overflowing event
  ASSERT_EQ(t.events().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.events()[i].at, i);
    EXPECT_EQ(t.events()[i].type, EventType::kEnqueue);
  }
  EXPECT_EQ(t.dropped(), 1u);
  const std::string text = t.serialize();
  EXPECT_NE(text.find("total=4 dropped=1"), std::string::npos);
  EXPECT_EQ(text.find("3 drop"), std::string::npos)
      << "the overflowed kDrop event must not appear as a stored line";
}

TEST(Tracer, ZeroCapacityDropsEverything) {
  Tracer t(/*capacity=*/0);
  t.record(1, EventType::kEnqueue, 0, -1);
  t.record(2, EventType::kGroFlush, 0, -1);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.total(), 2u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_EQ(t.serialize(), "total=2 dropped=2\n");
}

// Same seed + config => the whole stack replays identically, so the typed
// event trace and the metrics snapshot are byte-identical run to run.
class TraceDeterminismTest
    : public ::testing::TestWithParam<harness::Scheme> {};

std::pair<std::string, Snapshot> traced_run(harness::Scheme scheme) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.seed = 1234;
  cfg.telemetry.metrics = true;
  cfg.telemetry.trace = true;
  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : workload::stride_pairs(4, 2)) {
    els.push_back(&ex.add_elephant(s, d, 0));
  }
  ex.sim().run_until(60 * sim::kMillisecond);
  std::uint64_t delivered = 0;
  for (auto* e : els) delivered += e->delivered();
  EXPECT_GT(delivered, 0u);
  return {ex.tracer()->serialize(), ex.telemetry_snapshot()};
}

TEST_P(TraceDeterminismTest, SameSeedSameTrace) {
  const auto [trace1, snap1] = traced_run(GetParam());
  const auto [trace2, snap2] = traced_run(GetParam());
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(snap1.counters, snap2.counters);
  EXPECT_EQ(snap1.gauges, snap2.gauges);
  EXPECT_EQ(snap1.trace_events, snap2.trace_events);
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
  EXPECT_EQ(ex.tracer(), nullptr);
}

}  // namespace
}  // namespace presto::telemetry
