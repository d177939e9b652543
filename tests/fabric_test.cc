// In-fabric telemetry plane tests (ISSUE 8): switch-side monitor
// accounting, the cumulative-report collection protocol under control-plane
// faults (delay / drop / duplication driven through the FaultPlan grammar),
// anomaly detection (gray-link loss outliers, silent switches), and
// byte-identical determinism of the fabric_health document.
#include "telemetry/fabric/plane.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "harness/experiment.h"
#include "check/scenario.h"
#include "telemetry/fabric/collector.h"
#include "telemetry/fabric/monitor.h"
#include "telemetry/json_parse.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace presto::telemetry::fabric {
namespace {

// ---------------------------------------------------------------- monitors

TEST(LabelBucket, ShadowTreesMapToBucketsRealMacsToCatchAll) {
  EXPECT_EQ(net::label_bucket(net::shadow_mac(3, 0)), 0u);
  EXPECT_EQ(net::label_bucket(net::shadow_mac(9, 7)), 7u);
  EXPECT_EQ(net::label_bucket(net::real_mac(3)), kNonLabelBucket);
  EXPECT_EQ(net::label_bucket(net::real_mac(0)), kNonLabelBucket);
  EXPECT_EQ(net::label_bucket(net::shadow_mac(9, 16)), kNonLabelBucket);
}

/// A frame of `bytes` buffer bytes carrying spanning tree `tree`'s label.
net::Packet frame(std::uint32_t bytes, std::uint32_t tree) {
  net::Packet p;
  p.dst_mac = net::shadow_mac(0, tree);
  p.payload = bytes - net::kHeaderBytes;
  return p;
}

TEST(PortMonitor, CountsDropsAndHighWatermark) {
  FabricConfig cfg;
  cfg.microburst_threshold_bytes = 1000;
  sim::Simulation sim;
  SwitchMonitor mon(sim, 7, cfg);
  mon.add_port(10e9);
  PortMonitor* p = mon.port(0);

  sim.run_until(10);
  mon.on_enqueue(7, 0, frame(500, 2), 500);
  sim.run_until(20);
  mon.on_enqueue(7, 0, frame(400, 2), 900);
  sim.run_until(30);
  mon.on_tx(7, 0, frame(500, 2), 400);
  mon.on_drop(7, 0, frame(300, 2), net::DropCause::kQueueFull);
  mon.on_drop(7, 0, frame(300, 5), net::DropCause::kLossModel);
  mon.on_drop(7, 1, frame(200, 2), net::DropCause::kNoRoute);

  EXPECT_EQ(p->queue_hwm_bytes(), 900u);
  const TelemetryReport r = mon.snapshot(1000);
  EXPECT_EQ(r.switch_id, 7u);
  EXPECT_EQ(r.seq, 1u);
  EXPECT_EQ(r.emitted_at, 1000);
  ASSERT_EQ(r.ports.size(), 1u);
  EXPECT_EQ(r.ports[0].enqueued_packets, 2u);
  EXPECT_EQ(r.ports[0].tx_packets, 1u);
  EXPECT_EQ(r.ports[0].tx_bytes, 500u);
  EXPECT_EQ(r.ports[0].queue_hwm_bytes, 900u);
  EXPECT_EQ(r.ports[0].drops[static_cast<int>(net::DropCause::kQueueFull)],
            1u);
  EXPECT_EQ(r.ports[0].drops[static_cast<int>(net::DropCause::kLossModel)],
            1u);
  EXPECT_EQ(r.labels[2].tx_packets, 1u);
  EXPECT_EQ(r.labels[2].tx_bytes, 500u);
  // Port drop on bucket 2 + the switch-level no-route drop on bucket 2.
  EXPECT_EQ(r.labels[2].drop_packets, 2u);
  EXPECT_EQ(r.labels[5].drop_packets, 1u);
  EXPECT_EQ(mon.no_route_drops(), 1u);
}

TEST(PortMonitor, MicroburstEpisodeTracksDurationAndPeak) {
  FabricConfig cfg;
  cfg.microburst_threshold_bytes = 1000;
  sim::Simulation sim;
  SwitchMonitor mon(sim, 0, cfg);
  mon.add_port(10e9);

  sim.run_until(100);
  mon.on_enqueue(0, 0, frame(500, 0), 500);   // below threshold: no burst
  sim.run_until(200);
  mon.on_enqueue(0, 0, frame(700, 0), 1200);  // crosses: burst opens at 200
  sim.run_until(300);
  mon.on_enqueue(0, 0, frame(400, 0), 1600);  // peak 1600
  sim.run_until(400);
  mon.on_tx(0, 0, frame(500, 0), 1100);       // still above threshold
  sim.run_until(500);
  mon.on_tx(0, 0, frame(700, 0), 400);   // closes: duration 300, peak 1600
  sim.run_until(600);
  mon.on_enqueue(0, 0, frame(300, 0), 700);   // below: no new burst

  const TelemetryReport r = mon.snapshot(1000);
  EXPECT_EQ(r.ports[0].microburst_episodes, 1u);
  EXPECT_EQ(r.ports[0].microburst_max_duration, 300);
  EXPECT_EQ(r.ports[0].microburst_peak_bytes, 1600u);
}

TEST(PortMonitor, UtilizationEwmaOverWindows) {
  FabricConfig cfg;
  cfg.util_alpha = 0.5;
  sim::Simulation sim;
  SwitchMonitor mon(sim, 0, cfg);
  mon.add_port(8e9);  // 1 byte per ns

  // Window 1 (0..1000 ns, capacity 1000 B): 500 B sent -> util 0.5.
  sim.run_until(10);
  mon.on_enqueue(0, 0, frame(500, 0), 500);
  sim.run_until(600);
  mon.on_tx(0, 0, frame(500, 0), 0);
  TelemetryReport r = mon.snapshot(1000);
  EXPECT_NEAR(r.ports[0].util_ewma, 0.5, 1e-9);

  // Window 2 (1000..2000 ns): 1000 B sent -> inst 1.0,
  // ewma = 0.5 * 1.0 + 0.5 * 0.5 = 0.75.
  sim.run_until(1100);
  mon.on_enqueue(0, 0, frame(1000, 0), 1000);
  sim.run_until(1900);
  mon.on_tx(0, 0, frame(1000, 0), 0);
  r = mon.snapshot(2000);
  EXPECT_NEAR(r.ports[0].util_ewma, 0.75, 1e-9);
}

// --------------------------------------------------------------- collector

TelemetryReport make_report(std::uint32_t sw, std::uint64_t seq,
                            sim::Time emitted, std::uint64_t tx_bytes) {
  TelemetryReport r;
  r.switch_id = sw;
  r.seq = seq;
  r.emitted_at = emitted;
  r.ports.resize(1);
  r.ports[0].tx_bytes = tx_bytes;
  r.labels[0].tx_packets = tx_bytes / 1000;
  r.labels[0].tx_bytes = tx_bytes;
  return r;
}

TEST(Collector, SeqAccountingCountsDupReorderLost) {
  FabricConfig cfg;
  FabricCollector c(cfg);
  c.expect_switch(1, 1);

  c.on_report(make_report(1, 1, 100, 10), 110);
  c.on_report(make_report(1, 4, 400, 40), 410);  // gap: 2 and 3 lost
  c.on_report(make_report(1, 4, 400, 40), 420);  // duplicate
  c.on_report(make_report(1, 2, 200, 20), 430);  // stale: reordered
  const auto* a = c.accounting(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->received, 4u);
  EXPECT_EQ(a->accepted, 2u);
  EXPECT_EQ(a->duplicates, 1u);
  EXPECT_EQ(a->reordered, 1u);
  EXPECT_EQ(a->lost, 2u);
  EXPECT_EQ(a->last_seq, 4u);
}

TEST(Collector, CumulativeReportsMakeDeliveryIdempotent) {
  FabricConfig cfg;
  FabricCollector c1(cfg);
  FabricCollector c2(cfg);
  for (FabricCollector* c : {&c1, &c2}) {
    c->expect_switch(1, 1);
    c->on_report(make_report(1, 1, 100, 10'000), 110);
    c->on_report(make_report(1, 2, 200, 20'000), 210);
  }
  // c2 additionally sees the seq-2 frame twice and seq-1 again late.
  c2.on_report(make_report(1, 2, 200, 20'000), 220);
  c2.on_report(make_report(1, 1, 100, 10'000), 230);
  // The aggregated view (labels, imbalance) must be identical: state is
  // keyed on the latest accepted cumulative report only.
  EXPECT_EQ(c1.imbalance_index(), c2.imbalance_index());
  const std::string h1 = c1.health_json(1000);
  std::string h2 = c2.health_json(1000);
  // Only the delivery accounting may differ between the two documents.
  EXPECT_NE(h1, h2);
  JsonValue d1, d2;
  std::string err;
  ASSERT_TRUE(parse_json(h1, d1, err)) << err;
  ASSERT_TRUE(parse_json(h2, d2, err)) << err;
  EXPECT_EQ(d2.get("collector").num_or("duplicates", -1), 1.0);
  EXPECT_EQ(d2.get("collector").num_or("reordered", -1), 1.0);
  EXPECT_EQ(d1.get("labels").get("t0").num_or("tx_bytes", -1),
            d2.get("labels").get("t0").num_or("tx_bytes", -2));
}

// ----------------------------------------- collection under control faults

harness::ExperimentConfig fabric_cfg(const std::string& fault_plan) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.seed = 42;
  cfg.telemetry.metrics = true;
  cfg.telemetry.fabric.monitors = true;
  cfg.telemetry.fabric.flush_period = sim::kMillisecond;
  cfg.fault_plan = fault_plan;
  return cfg;
}

/// Runs stride elephants for `horizon` and returns the experiment's health
/// document plus the plane pointer-derived protocol counters.
struct FabricRun {
  std::string health;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
};

FabricRun run_fabric(const harness::ExperimentConfig& cfg,
                     sim::Time horizon = 20 * sim::kMillisecond) {
  harness::Experiment ex(cfg);
  for (const auto& [s, d] : workload::stride_pairs(16, 4)) {
    ex.add_elephant(s, d, 0);
  }
  ex.sim().run_until(horizon);
  FabricRun out;
  out.health = ex.fabric_health_json();
  const auto* plane = ex.fabric_plane();
  out.sent = plane->reports_sent();
  out.dropped = plane->reports_dropped();
  out.duplicated = plane->reports_duplicated();
  return out;
}

JsonValue parse_health(const std::string& text) {
  JsonValue doc;
  std::string err;
  EXPECT_TRUE(parse_json(text, doc, err)) << err;
  EXPECT_EQ(doc.str_or("schema", ""), kHealthSchemaName);
  EXPECT_EQ(doc.num_or("schema_version", 0), kHealthSchemaVersion);
  return doc;
}

TEST(FabricProtocol, HealthyControlPlaneDeliversEverything) {
  const FabricRun r = run_fabric(fabric_cfg(""));
  EXPECT_GT(r.sent, 0u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.duplicated, 0u);
  const JsonValue doc = parse_health(r.health);
  const JsonValue& coll = doc.get("collector");
  EXPECT_EQ(coll.num_or("switches", 0), 8.0);  // 4 spines + 4 leaves
  EXPECT_GT(coll.num_or("reports_accepted", 0), 0.0);
  EXPECT_EQ(coll.num_or("lost", -1), 0.0);
  EXPECT_EQ(coll.num_or("duplicates", -1), 0.0);
  EXPECT_EQ(coll.num_or("silent_switches", -1), 0.0);
  // Presto spraying over a healthy fabric: every tree label carried bytes.
  const auto& labels = doc.get("labels").as_object();
  EXPECT_GE(labels.size(), 4u);
  for (const auto& [name, l] : labels) {
    if (name == "other") continue;
    EXPECT_GT(l.num_or("tx_bytes", 0), 0.0) << name;
  }
}

TEST(FabricProtocol, DelayPastTwoPeriodsTripsStalenessDetector) {
  // Reports keep *arriving* every period, but each one is 3 periods old by
  // the time it lands — emission-based staleness must flag every switch.
  const FabricRun r =
      run_fabric(fabric_cfg("ctl_fault@0ms delay=3ms"));
  EXPECT_EQ(r.dropped, 0u);
  const JsonValue doc = parse_health(r.health);
  const JsonValue& coll = doc.get("collector");
  EXPECT_GT(coll.num_or("reports_accepted", 0), 0.0);
  EXPECT_EQ(coll.num_or("silent_switches", 0), 8.0);
  for (const JsonValue& s :
       doc.get("anomalies").get("silent_switches").as_array()) {
    EXPECT_GT(s.num_or("staleness_periods", 0), 2.0);
  }
}

TEST(FabricProtocol, DropEverythingFiresSilentSwitchDetector) {
  const FabricRun r =
      run_fabric(fabric_cfg("ctl_fault@5ms drop=1"));
  EXPECT_GT(r.dropped, 0u);
  const JsonValue doc = parse_health(r.health);
  const JsonValue& coll = doc.get("collector");
  // The first ~5 reports per switch made it; everything after is gone.
  EXPECT_GT(coll.num_or("reports_accepted", 0), 0.0);
  EXPECT_EQ(coll.num_or("silent_switches", 0), 8.0);
  const auto& silent = doc.get("anomalies").get("silent_switches").as_array();
  ASSERT_EQ(silent.size(), 8u);
  for (const JsonValue& s : silent) {
    EXPECT_GT(s.num_or("staleness_periods", -1), 10.0);
  }
}

TEST(FabricProtocol, DuplicateDeliveryIsIdempotent) {
  const FabricRun clean = run_fabric(fabric_cfg(""));
  const FabricRun dup = run_fabric(fabric_cfg("ctl_fault@0ms dup=1"));
  EXPECT_GT(dup.duplicated, 0u);
  const JsonValue dc = parse_health(clean.health);
  const JsonValue dd = parse_health(dup.health);
  EXPECT_GT(dd.get("collector").num_or("duplicates", 0), 0.0);
  // Same accepted state: per-label totals must match the clean run exactly
  // (cumulative reports make redelivery a no-op).
  EXPECT_EQ(dd.get("collector").num_or("reports_accepted", -1),
            dc.get("collector").num_or("reports_accepted", -2));
  for (const auto& [name, l] : dc.get("labels").as_object()) {
    EXPECT_EQ(l.num_or("tx_bytes", -1),
              dd.get("labels").get(name).num_or("tx_bytes", -2))
        << name;
    EXPECT_EQ(l.num_or("drop_packets", -1),
              dd.get("labels").get(name).num_or("drop_packets", -2))
        << name;
  }
}

// ---------------------------------------------------------------- anomalies

TEST(FabricAnomaly, GrayLinkShowsUpAsLossOutlier) {
  // Pin leaf0->spine0 in the Gilbert-Elliott Bad state (total loss, ports
  // up): only the trees crossing that link bleed packets, so their loss
  // ratio must stand out against the healthy labels.
  harness::ExperimentConfig cfg = fabric_cfg("");
  cfg.fault_plan = "degrade@2ms leaf=" + std::to_string(cfg.spines) +
                   " spine=0 p_gb=1 p_bg=0";
  const FabricRun r = run_fabric(cfg, 60 * sim::kMillisecond);
  const JsonValue doc = parse_health(r.health);
  const auto& outliers =
      doc.get("anomalies").get("loss_outliers").as_array();
  ASSERT_FALSE(outliers.empty());
  for (const JsonValue& o : outliers) {
    EXPECT_GT(o.num_or("loss_pct", 0), 0.0);
    EXPECT_GT(o.num_or("drop_packets", 0), 0.0);
    // The flagged group must be a tree label, not the catch-all bucket.
    EXPECT_NE(o.str_or("label", ""), "other");
  }
}

// ------------------------------------------------------------- determinism

TEST(FabricDeterminism, SameSeedProducesByteIdenticalHealthJson) {
  // Exercise the whole protocol surface (delay + drop + dup faults all
  // consume plane RNG rolls) and require byte equality across reruns.
  const std::string plan =
      "ctl_fault@3ms delay=500us drop=0.3 dup=0.3; ctl_clear@12ms";
  const FabricRun a = run_fabric(fabric_cfg(plan));
  const FabricRun b = run_fabric(fabric_cfg(plan));
  EXPECT_FALSE(a.health.empty());
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
}

TEST(FabricDeterminism, MonitorsDoNotPerturbTheWorkload) {
  // The telemetry plane observes; enabling it must not change a single
  // delivered byte. (Monitor hooks are pure counters and the plane rolls
  // its own RNG stream, never the controller's.)
  auto delivered = [](bool monitors) {
    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    cfg.seed = 7;
    cfg.telemetry.fabric.monitors = monitors;
    cfg.telemetry.fabric.flush_period = monitors ? sim::kMillisecond : 0;
    cfg.fault_plan = "ctl_fault@2ms delay=1ms drop=0.5; ctl_clear@9ms";
    harness::Experiment ex(cfg);
    std::vector<workload::ElephantApp*> els;
    for (const auto& [s, d] : workload::stride_pairs(16, 4)) {
      els.push_back(&ex.add_elephant(s, d, 0));
    }
    ex.sim().run_until(15 * sim::kMillisecond);
    std::uint64_t total = 0;
    for (auto* e : els) total += e->delivered();
    return total;
  };
  EXPECT_EQ(delivered(false), delivered(true));
}

TEST(FabricDigest, ScenarioDigestIncorporatesMonitorState) {
  // Scenario runs enable passive monitors (flush_period 0); the soak
  // digest must fold their state and stay replay-stable.
  const check::Scenario sc = check::Scenario::generate(0xFAB);
  check::ScenarioRun r1(sc);
  check::ScenarioRun r2(sc);
  ASSERT_NE(r1.experiment().fabric_plane(), nullptr);
  r1.sim().run_until(sc.cap);
  r2.sim().run_until(sc.cap);
  EXPECT_EQ(r1.state_digest(), r2.state_digest());

  // The plane contributes real signal: its own digest moves with traffic.
  sim::Digest empty_d, run_d;
  check::ScenarioRun fresh(sc);
  fresh.experiment().fabric_plane()->digest_state(empty_d);
  r1.experiment().fabric_plane()->digest_state(run_d);
  EXPECT_NE(empty_d.value(), run_d.value());
}

// ------------------------------------------------------------ harness glue

TEST(FabricHarness, HealthJsonEmptyWhenMonitorsOff) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  harness::Experiment ex(cfg);
  EXPECT_EQ(ex.fabric_plane(), nullptr);
  EXPECT_TRUE(ex.fabric_health_json().empty());
}

TEST(FabricHarness, ImbalanceCounterTrackIsSampled) {
  harness::ExperimentConfig cfg = fabric_cfg("");
  cfg.telemetry.timeseries = true;
  harness::Experiment ex(cfg);
  for (const auto& [s, d] : workload::stride_pairs(16, 4)) {
    ex.add_elephant(s, d, 0);
  }
  ex.sim().run_until(10 * sim::kMillisecond);
  const TimeSeries* imb = ex.sampler()->find("fabric.imbalance_index");
  ASSERT_NE(imb, nullptr);
  ASSERT_FALSE(imb->points().empty());
  double last = 0;
  for (const SeriesPoint& p : imb->points()) last = p.value;
  // Presto spray keeps max/mean near 1; any traffic at all keeps it >= 1.
  EXPECT_GE(last, 1.0);
  EXPECT_LT(last, 2.0);
  EXPECT_NE(ex.sampler()->find("fabric.label.t0.tx_bytes"), nullptr);
}

}  // namespace
}  // namespace presto::telemetry::fabric
