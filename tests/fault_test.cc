// Fault-injection subsystem tests (ISSUE 2): plan grammar, degraded-link
// loss models, injector routing, edge path suspicion, and determinism of
// faulted runs (serial and under the parallel sweep runner).
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/flowcell_engine.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "net/topology.h"
#include "test_util.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace presto::fault {
namespace {

// ---------------------------------------------------------------- grammar

TEST(FaultPlan, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "down@5ms leaf=4 spine=0 group=1; up@10ms leaf=4 spine=0 group=1;"
      "flap@1s leaf=5 spine=1 period=40ms count=3 duty=0.25;"
      "degrade@2us leaf=6 spine=2 loss_good=0.01 loss_bad=0.5 p_gb=0.02 "
      "p_bg=0.2 corrupt=0.001;"
      "heal@3s leaf=6 spine=2;"
      " switch_down@7ms switch=2 ; switch_up@8ms switch=2;"
      "ctl_fault@9ms delay=50ms drop=0.5; ctl_clear@700ms");
  ASSERT_EQ(plan.events.size(), 9u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[0].at, 5 * sim::kMillisecond);
  EXPECT_EQ(plan.events[0].leaf, 4u);
  EXPECT_EQ(plan.events[0].spine, 0u);
  EXPECT_EQ(plan.events[0].group, 1u);

  EXPECT_EQ(plan.events[1].kind, FaultKind::kLinkUp);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(plan.events[2].at, sim::kSecond);
  EXPECT_EQ(plan.events[2].period, 40 * sim::kMillisecond);
  EXPECT_EQ(plan.events[2].count, 3u);
  EXPECT_DOUBLE_EQ(plan.events[2].duty, 0.25);

  EXPECT_EQ(plan.events[3].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.events[3].at, 2 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(plan.events[3].loss.loss_bad, 0.5);
  EXPECT_DOUBLE_EQ(plan.events[3].loss.p_gb, 0.02);
  EXPECT_DOUBLE_EQ(plan.events[3].loss.corrupt, 0.001);
  EXPECT_TRUE(plan.events[3].loss.active());

  EXPECT_EQ(plan.events[4].kind, FaultKind::kLinkHeal);
  EXPECT_EQ(plan.events[5].kind, FaultKind::kSwitchDown);
  EXPECT_EQ(plan.events[5].sw, 2u);
  EXPECT_EQ(plan.events[6].kind, FaultKind::kSwitchUp);

  EXPECT_EQ(plan.events[7].kind, FaultKind::kCtlFault);
  EXPECT_EQ(plan.events[7].ctl_delay, 50 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(plan.events[7].ctl_drop, 0.5);
  EXPECT_EQ(plan.events[8].kind, FaultKind::kCtlClear);
}

TEST(FaultPlan, EmptyAndWhitespacePlansAreEmpty) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ;; ").empty());
}

TEST(FaultPlan, RejectsMalformedStatements) {
  EXPECT_THROW(FaultPlan::parse("explode@1ms leaf=0 spine=0"),
               std::invalid_argument);                       // unknown kind
  EXPECT_THROW(FaultPlan::parse("down leaf=0 spine=0"),
               std::invalid_argument);                       // missing @time
  EXPECT_THROW(FaultPlan::parse("down@5 leaf=0 spine=0"),
               std::invalid_argument);                       // missing unit
  EXPECT_THROW(FaultPlan::parse("down@5ms spine=0"),
               std::invalid_argument);                       // missing leaf
  EXPECT_THROW(FaultPlan::parse("down@5ms leaf=0 spine=0 bogus=1"),
               std::invalid_argument);                       // unknown key
  EXPECT_THROW(FaultPlan::parse("switch_down@5ms"),
               std::invalid_argument);                       // missing switch
  EXPECT_THROW(FaultPlan::parse("flap@5ms leaf=0 spine=0 count=3"),
               std::invalid_argument);                       // missing period
  EXPECT_THROW(
      FaultPlan::parse("flap@5ms leaf=0 spine=0 period=1ms count=0"),
      std::invalid_argument);                                // zero count
  EXPECT_THROW(FaultPlan::parse("degrade@5ms leaf=0 spine=0 loss_bad=1.5"),
               std::invalid_argument);                       // prob > 1
  EXPECT_THROW(FaultPlan::parse("ctl_fault@1ms drop=abc"),
               std::invalid_argument);                       // not a number
}

// ------------------------------------------------------- port loss models

class CountingSink : public net::PacketSink {
 public:
  void receive(net::Packet p, net::PortId) override {
    ++received;
    (void)p;
  }
  std::uint64_t received = 0;
};

net::Packet frame() {
  net::Packet p;
  p.payload = 1000;
  return p;
}

TEST(LossModel, BadStateEatsEverythingAndCountsDrops) {
  sim::Simulation sim;
  CountingSink sink;
  net::TxPort port(sim, net::LinkConfig{});
  port.connect(&sink, 0);
  net::LossModel m;
  m.p_gb = 1.0;  // first transition lands in Bad and stays: loss_bad = 1
  m.p_bg = 0.0;
  port.set_loss_model(m, /*seed=*/7);
  EXPECT_TRUE(port.degraded());
  for (int i = 0; i < 50; ++i) port.enqueue(frame());
  sim.run();
  EXPECT_EQ(sink.received, 0u);
  EXPECT_EQ(port.counters().drops[static_cast<std::size_t>(
                net::DropCause::kLossModel)],
            50u);
  EXPECT_EQ(port.counters().dropped_packets, 50u);

  port.clear_loss_model();
  EXPECT_FALSE(port.degraded());
  for (int i = 0; i < 10; ++i) port.enqueue(frame());
  sim.run();
  EXPECT_EQ(sink.received, 10u);  // healed link delivers again
}

TEST(LossModel, CorruptionIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    CountingSink sink;
    net::TxPort port(sim, net::LinkConfig{});
    port.connect(&sink, 0);
    net::LossModel m;
    m.corrupt = 0.3;
    port.set_loss_model(m, seed);
    for (int i = 0; i < 400; ++i) port.enqueue(frame());
    sim.run();
    return std::pair{sink.received,
                     port.counters().drops[static_cast<std::size_t>(
                         net::DropCause::kCorrupt)]};
  };
  const auto [rx1, drops1] = run(42);
  const auto [rx2, drops2] = run(42);
  EXPECT_EQ(rx1, rx2);
  EXPECT_EQ(drops1, drops2);
  EXPECT_GT(drops1, 60u);   // ~30% of 400
  EXPECT_LT(drops1, 180u);
  EXPECT_EQ(rx1 + drops1, 400u);
}

// ------------------------------------------------------- injector routing

struct Bed {
  sim::Simulation sim;
  std::unique_ptr<net::Topology> topo;
  controller::Controller ctl;
  FaultInjector inj;

  Bed()
      : topo(net::make_clos(sim, 4, 4, 4)),
        ctl(*topo),
        inj(*topo, ctl, /*seed=*/99) {
    ctl.install();
  }
};

TEST(FaultInjector, DegradeAndHealDriveBothPortDirections) {
  Bed bed;
  const net::FabricLink* link = bed.topo->find_fabric_link(
      bed.topo->leaves()[1], bed.topo->spines()[2], 0);
  ASSERT_NE(link, nullptr);
  bed.inj.arm(FaultPlan::parse(
      "degrade@1ms leaf=" + std::to_string(link->leaf) +
      " spine=" + std::to_string(link->spine) + " p_gb=0.1 loss_bad=0.9;"
      "heal@5ms leaf=" + std::to_string(link->leaf) +
      " spine=" + std::to_string(link->spine)));
  bed.sim.run_until(2 * sim::kMillisecond);
  EXPECT_TRUE(bed.topo->get_switch(link->leaf).port(link->leaf_port)
                  .degraded());
  EXPECT_TRUE(bed.topo->get_switch(link->spine).port(link->spine_port)
                  .degraded());
  bed.sim.run_until(6 * sim::kMillisecond);
  EXPECT_FALSE(bed.topo->get_switch(link->leaf).port(link->leaf_port)
                   .degraded());
  EXPECT_FALSE(bed.topo->get_switch(link->spine).port(link->spine_port)
                   .degraded());
}

TEST(FaultInjector, SwitchFailStopDownsAllPortsAndRestores) {
  Bed bed;
  const net::SwitchId spine = bed.topo->spines()[0];
  bed.inj.arm(FaultPlan::parse(
      "switch_down@1ms switch=" + std::to_string(spine) +
      ";switch_up@5ms switch=" + std::to_string(spine)));
  bed.sim.run_until(2 * sim::kMillisecond);
  net::Switch& sw = bed.topo->get_switch(spine);
  for (net::PortId p = 0; p < static_cast<net::PortId>(sw.port_count()); ++p) {
    EXPECT_TRUE(sw.port(p).down()) << "port " << p;
  }
  // The far end of every fabric link into the dead switch is down too.
  for (const net::FabricLink& l : bed.topo->fabric_links()) {
    if (l.spine != spine) continue;
    EXPECT_TRUE(bed.topo->get_switch(l.leaf).port(l.leaf_port).down());
  }
  bed.sim.run_until(6 * sim::kMillisecond);
  for (net::PortId p = 0; p < static_cast<net::PortId>(sw.port_count()); ++p) {
    EXPECT_FALSE(sw.port(p).down()) << "port " << p;
  }
  for (const net::FabricLink& l : bed.topo->fabric_links()) {
    if (l.spine != spine) continue;
    EXPECT_FALSE(bed.topo->get_switch(l.leaf).port(l.leaf_port).down());
  }
}

TEST(FaultInjector, ControlFaultDropsWeightedPushes) {
  Bed bed;
  telemetry::TelemetryConfig tc;
  tc.metrics = true;
  telemetry::Session session(tc, bed.sim);
  bed.ctl.attach_telemetry(session.controller_probes());
  bed.inj.attach_telemetry(session.fault_probes());

  const net::SwitchId leaf0 = bed.topo->leaves()[0];
  // drop=1: every weighted push is eaten, so the vSwitch schedules stay
  // stale (still 4 labels) long after the failure's react delay.
  bed.inj.arm(FaultPlan::parse(
      "ctl_fault@0ns delay=10ms drop=1;"
      "down@5ms leaf=" + std::to_string(leaf0) + " spine=0 group=0"));
  const net::HostId src = bed.topo->hosts_on(bed.topo->leaves()[1])[0];
  const net::HostId dst = bed.topo->hosts_on(leaf0)[0];
  bed.sim.run_until(sim::kSecond);
  EXPECT_EQ(bed.ctl.label_map(src).schedule(dst)->size(), 4u);
  const auto snap = session.snapshot();
  EXPECT_GE(snap.counters.at("controller.pushes_dropped"), 1u);
  EXPECT_GE(snap.counters.at("controller.pushes_delayed"), 1u);
  EXPECT_EQ(snap.counters.at("fault.control_events"), 1u);
  EXPECT_EQ(snap.counters.at("fault.link_events"), 1u);

  // Clearing the fault and restoring the link converges the schedules.
  bed.inj.arm(FaultPlan::parse(
      "ctl_clear@1100ms;"
      "up@1200ms leaf=" + std::to_string(leaf0) + " spine=0 group=0"));
  bed.sim.run_until(2 * sim::kSecond);
  EXPECT_EQ(bed.ctl.label_map(src).schedule(dst)->size(), 4u);
  EXPECT_EQ(bed.ctl.failed_link_count(), 0u);
}

TEST(FaultInjector, FlapExpandsIntoCountedTransitions) {
  Bed bed;
  telemetry::TelemetryConfig tc;
  tc.metrics = true;
  telemetry::Session session(tc, bed.sim);
  bed.ctl.attach_telemetry(session.controller_probes());
  bed.inj.attach_telemetry(session.fault_probes());

  const net::SwitchId leaf0 = bed.topo->leaves()[0];
  bed.inj.arm(FaultPlan::parse("flap@1ms leaf=" + std::to_string(leaf0) +
                               " spine=0 group=0 period=10ms count=4"));
  bed.sim.run_until(sim::kSecond);
  const auto snap = session.snapshot();
  EXPECT_EQ(snap.counters.at("fault.link_events"), 8u);  // 4 downs + 4 ups
  EXPECT_EQ(snap.counters.at("fault.events"), 8u);
  // Every transition was a real state change: no no-ops, and the link ends
  // the run healthy with full schedules.
  EXPECT_EQ(snap.counters.at("controller.noop_transitions"), 0u);
  EXPECT_EQ(bed.ctl.failed_link_count(), 0u);
  const net::HostId src = bed.topo->hosts_on(bed.topo->leaves()[1])[0];
  const net::HostId dst = bed.topo->hosts_on(leaf0)[0];
  EXPECT_EQ(bed.ctl.label_map(src).schedule(dst)->size(), 4u);
}

// --------------------------------------------------- edge path suspicion

net::Packet cell_seg(std::uint64_t seq, std::uint32_t payload = 65536) {
  net::Packet p;
  p.flow = net::FlowKey{0, 1, 10000, 80};
  p.src_host = 0;
  p.dst_host = 1;
  p.seq = seq;
  p.payload = payload;
  p.dst_mac = net::real_mac(1);
  return p;
}

TEST(PathSuspicion, CorroboratedBlameQuarantinesAndSteers) {
  sim::Simulation sim;
  core::LabelMap map;
  std::vector<net::MacAddr> labels;
  for (std::uint32_t t = 0; t < 4; ++t) {
    labels.push_back(net::shadow_mac(1, t));
  }
  map.set_schedule(1, labels);
  core::FlowcellConfig fc;
  fc.path_suspicion = true;
  fc.suspicion_hold = 5 * sim::kMillisecond;
  core::FlowcellEngine lb(map, fc);
  lb.set_clock(&sim);

  // Dispatch four full cells; remember which label carried bytes [0, 64K).
  net::MacAddr first_label = net::kInvalidMac;
  for (int i = 0; i < 4; ++i) {
    net::Packet p = cell_seg(static_cast<std::uint64_t>(i) * 65536);
    lb.on_segment(p);
    if (i == 0) first_label = p.dst_mac;
  }
  ASSERT_NE(first_label, net::kInvalidMac);

  // A single fast-retransmit signal is not enough (could be reordering)…
  lb.on_loss_signal(cell_seg(0).flow, /*hole_seq=*/0, /*timeout=*/false);
  EXPECT_FALSE(lb.label_suspect(first_label));
  // …but a corroborating second strike quarantines exactly that label.
  lb.on_loss_signal(cell_seg(0).flow, /*hole_seq=*/0, /*timeout=*/false);
  EXPECT_TRUE(lb.label_suspect(first_label));
  for (net::MacAddr l : labels) {
    if (l != first_label) {
      EXPECT_FALSE(lb.label_suspect(l)) << l;
    }
  }

  // Dispatch steers around the quarantined label until the hold expires.
  for (int i = 0; i < 8; ++i) {
    net::Packet p = cell_seg(static_cast<std::uint64_t>(4 + i) * 65536);
    lb.on_segment(p);
    EXPECT_NE(p.dst_mac, first_label) << "cell " << i;
  }
  sim.run_until(6 * sim::kMillisecond);  // past the quarantine hold
  EXPECT_FALSE(lb.label_suspect(first_label));

  // An RTO is a strong signal: it quarantines without corroboration.
  sim.run_until(100 * sim::kMillisecond);  // strikes decay first
  lb.on_loss_signal(cell_seg(0).flow, /*hole_seq=*/12 * 65536,
                    /*timeout=*/true);
  bool any = false;
  for (net::MacAddr l : labels) any = any || lb.label_suspect(l);
  EXPECT_TRUE(any);
}

TEST(PathSuspicion, SpuriousRecoveryExoneratesTheBlamedLabel) {
  sim::Simulation sim;
  core::LabelMap map;
  std::vector<net::MacAddr> labels;
  for (std::uint32_t t = 0; t < 4; ++t) {
    labels.push_back(net::shadow_mac(1, t));
  }
  map.set_schedule(1, labels);
  core::FlowcellConfig fc;
  fc.path_suspicion = true;
  core::FlowcellEngine lb(map, fc);
  lb.set_clock(&sim);

  net::MacAddr first_label = net::kInvalidMac;
  for (int i = 0; i < 2; ++i) {
    net::Packet p = cell_seg(static_cast<std::uint64_t>(i) * 65536);
    lb.on_segment(p);
    if (i == 0) first_label = p.dst_mac;
  }
  lb.on_loss_signal(cell_seg(0).flow, 0, false);
  lb.on_loss_signal(cell_seg(0).flow, 0, false);
  ASSERT_TRUE(lb.label_suspect(first_label));
  // DSACK proves the episode spurious: the quarantine lifts immediately.
  lb.on_recovery_signal(cell_seg(0).flow);
  EXPECT_FALSE(lb.label_suspect(first_label));
}

TEST(PathSuspicion, DisabledFlagIgnoresSignals) {
  sim::Simulation sim;
  core::LabelMap map;
  std::vector<net::MacAddr> labels{net::shadow_mac(1, 0),
                                   net::shadow_mac(1, 1)};
  map.set_schedule(1, labels);
  core::FlowcellEngine lb(map, core::FlowcellConfig{});  // flag off
  lb.set_clock(&sim);
  net::Packet p = cell_seg(0);
  lb.on_segment(p);
  for (int i = 0; i < 4; ++i) lb.on_loss_signal(p.flow, 0, true);
  EXPECT_FALSE(lb.label_suspect(p.dst_mac));
}

// ------------------------------------------------ end-to-end & determinism

/// A gray link — eating every frame while its ports stay up — is invisible
/// to the controller (no link-down event) AND to the leaves' hardware
/// failover (which keys on port state), so only the edge can react: with
/// suspicion on, senders must quarantine the dead tree's labels and deliver
/// measurably more than with the flag off.
TEST(FaultIntegration, EdgeSuspicionRescuesSilentGrayLink) {
  auto run = [](bool suspicion) {
    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    cfg.seed = 77;
    cfg.edge_suspicion = suspicion;
    cfg.telemetry.metrics = true;
    // leaf 0 is switch `spines`; p_gb=1, p_bg=0 pins the Gilbert-Elliott
    // chain in Bad (loss_bad defaults to 1): total loss, ports up.
    cfg.fault_plan = "degrade@20ms leaf=" + std::to_string(cfg.spines) +
                     " spine=0 p_gb=1 p_bg=0";
    harness::Experiment ex(cfg);
    // Leaf 0's senders only, so the fabric is underloaded: every flow sprays
    // across the gray link, and congestion losses do not drown the tracker.
    std::vector<workload::ElephantApp*> els;
    for (net::HostId h = 0; h < 4; ++h) {
      els.push_back(&ex.add_elephant(h, h + 4, 0));
    }
    ex.sim().run_until(300 * sim::kMillisecond);
    std::uint64_t total = 0;
    for (auto* e : els) total += e->delivered();
    return std::pair{total, ex.telemetry_snapshot()};
  };
  const auto [without, snap_off] = run(false);
  const auto [with, snap_on] = run(true);
  EXPECT_EQ(snap_off.counters.at("core.flowcell.suspicion.skips"), 0u);
  EXPECT_GT(snap_on.counters.at("core.flowcell.suspicion.signals"), 0u);
  EXPECT_GT(snap_on.counters.at("core.flowcell.suspicion.skips"), 0u);
  EXPECT_EQ(snap_on.counters.at("fault.degrade_events"), 1u);
  EXPECT_GT(snap_on.counters.at("net.port.dropped.loss_model"), 0u);
  // The gray link strands flows without edge reaction; suspicion must buy a
  // decisive margin, not a rounding error.
  EXPECT_GT(static_cast<double>(with), 1.2 * static_cast<double>(without));
}

test::Replay faulted_run(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.seed = seed;
  cfg.edge_suspicion = true;
  cfg.telemetry.metrics = true;
  cfg.fault_plan =
      "flap@10ms leaf=2 spine=0 group=0 period=20ms count=2;"
      "degrade@15ms leaf=3 spine=1 p_gb=0.05 loss_bad=0.5 corrupt=0.001;"
      "ctl_fault@5ms delay=5ms drop=0.5;"
      "heal@70ms leaf=3 spine=1";
  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : workload::stride_pairs(4, 2)) {
    els.push_back(&ex.add_elephant(s, d, 0));
  }
  ex.sim().run_until(120 * sim::kMillisecond);
  std::uint64_t delivered = 0;
  for (auto* e : els) delivered += e->delivered();
  EXPECT_GT(delivered, 0u);
  return test::replay_of(ex);
}

TEST(FaultDeterminism, SamePlanSameSeedIsByteIdentical) {
  const test::Replay a = faulted_run(4242);
  const test::Replay b = faulted_run(4242);
  EXPECT_GT(a.executed, 0u);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.snap.counters, b.snap.counters);
  EXPECT_EQ(a.snap.gauges, b.snap.gauges);
  // The faults actually fired in the run.
  EXPECT_GT(a.snap.counters.at("fault.events"), 0u);
  EXPECT_GT(a.snap.counters.at("net.port.dropped.loss_model"), 0u);
}

TEST(FaultDeterminism, ParallelSweepMatchesSerialBitForBit) {
  auto sweep = [](unsigned threads) {
    return harness::run_indexed(4, threads, [](int s) {
      return faulted_run(1000 + static_cast<std::uint64_t>(s));
    });
  };
  const std::vector<test::Replay> serial = sweep(1);
  const std::vector<test::Replay> parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  telemetry::Snapshot merged_serial;
  telemetry::Snapshot merged_parallel;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].executed, parallel[i].executed);
    EXPECT_EQ(serial[i].digest, parallel[i].digest);
    merged_serial.merge(serial[i].snap);
    merged_parallel.merge(parallel[i].snap);
  }
  EXPECT_EQ(merged_serial.counters, merged_parallel.counters);
  EXPECT_EQ(merged_serial.gauges, merged_parallel.gauges);
  EXPECT_GT(merged_serial.counters.at("fault.events"), 0u);
}

}  // namespace
}  // namespace presto::fault
