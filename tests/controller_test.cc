// Controller tests: spanning trees, label routing, failover staging.
#include "controller/controller.h"

#include <gtest/gtest.h>

#include <set>

#include "net/topology.h"
#include "telemetry/probes.h"

namespace presto::controller {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : topo_(net::make_clos(sim_, 4, 4, 4)), ctl_(*topo_) {
    ctl_.install();
  }
  sim::Simulation sim_;
  std::unique_ptr<net::Topology> topo_;
  Controller ctl_;
};

TEST_F(ControllerTest, OneTreePerSpine) {
  ASSERT_EQ(ctl_.trees().size(), 4u);
  std::set<net::SwitchId> spines;
  for (const Tree& t : ctl_.trees()) spines.insert(t.spine);
  EXPECT_EQ(spines.size(), 4u);  // disjoint: each tree owns a unique spine
}

TEST_F(ControllerTest, GammaMultipliesTrees) {
  sim::Simulation sim;
  net::TopoParams params;
  params.gamma = 2;
  auto topo = net::make_clos(sim, 2, 2, 1, params);
  Controller ctl(*topo);
  ctl.install();
  EXPECT_EQ(ctl.trees().size(), 4u);  // 2 spines x 2 parallel-link groups
}

TEST_F(ControllerTest, SchedulesCoverAllTreesForEveryPair) {
  for (net::HostId src = 0; src < 16; ++src) {
    core::LabelMap& map = ctl_.label_map(src);
    for (net::HostId dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      const auto* sched = map.schedule(dst);
      ASSERT_NE(sched, nullptr);
      ASSERT_EQ(sched->size(), 4u);
      std::set<net::MacAddr> uniq(sched->begin(), sched->end());
      EXPECT_EQ(uniq.size(), 4u);
      for (net::MacAddr m : *sched) {
        EXPECT_TRUE(net::is_shadow_mac(m));
        EXPECT_EQ(net::mac_host(m), dst);
      }
    }
  }
}

/// Behavioural check: inject a labeled packet at a source leaf and verify
/// it reaches the destination host sink through the tree's spine.
class DeliverySink : public net::PacketSink {
 public:
  void receive(net::Packet p, net::PortId) override {
    packets.push_back(std::move(p));
  }
  std::vector<net::Packet> packets;
};

TEST_F(ControllerTest, LabelsDeliverThroughTheRightSpine) {
  // Attach a sink in place of host 12 (on the last leaf).
  DeliverySink sink;
  net::TxPort dummy_uplink(sim_, net::LinkConfig{});
  topo_->connect_host(12, &sink, dummy_uplink);

  for (const Tree& t : ctl_.trees()) {
    sink.packets.clear();
    net::Packet p;
    p.dst_mac = net::shadow_mac(12, t.id);
    p.dst_host = 12;
    p.payload = 100;
    // Inject at leaf 0 (source edge switch of host 0).
    topo_->get_switch(topo_->host(0).edge_switch).receive(p, 0);
    sim_.run();
    ASSERT_EQ(sink.packets.size(), 1u) << "tree " << t.id;
    // The tree's spine must have forwarded exactly this packet.
    const auto c = topo_->get_switch(t.spine).total_counters();
    EXPECT_GT(c.tx_packets, 0u);
  }
}

TEST_F(ControllerTest, RealMacRoutesDeliver) {
  DeliverySink sink;
  net::TxPort dummy_uplink(sim_, net::LinkConfig{});
  topo_->connect_host(15, &sink, dummy_uplink);
  net::Packet p;
  p.dst_mac = net::real_mac(15);
  p.dst_host = 15;
  p.flow = net::FlowKey{0, 15, 1234, 80};
  p.payload = 100;
  topo_->get_switch(topo_->host(0).edge_switch).receive(p, 0);
  sim_.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST_F(ControllerTest, FailureTimelineStagesApply) {
  // Fail the link between the first leaf and the first tree's spine.
  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  const auto tl = ctl_.schedule_link_failure(leaf0, t.spine, t.group,
                                             10 * sim::kMillisecond);
  EXPECT_EQ(tl.failed, 10 * sim::kMillisecond);
  EXPECT_GT(tl.failover, tl.failed);
  EXPECT_GT(tl.weighted, tl.failover);

  // Before failure: schedule for (src on other leaf -> dst on leaf0) has 4.
  const net::HostId dst_on_leaf0 = topo_->hosts_on(leaf0)[0];
  const net::HostId src_elsewhere = topo_->hosts_on(topo_->leaves()[1])[0];
  EXPECT_EQ(ctl_.label_map(src_elsewhere).schedule(dst_on_leaf0)->size(), 4u);

  sim_.run_until(tl.weighted + 1);
  // After the weighted stage: the affected tree is pruned for pairs that
  // cross the dead link, and kept for unaffected pairs.
  EXPECT_EQ(ctl_.label_map(src_elsewhere).schedule(dst_on_leaf0)->size(), 3u);
  const net::HostId src_leaf0 = topo_->hosts_on(leaf0)[0];
  const net::HostId dst_elsewhere = topo_->hosts_on(topo_->leaves()[2])[0];
  EXPECT_EQ(ctl_.label_map(src_leaf0).schedule(dst_elsewhere)->size(), 3u);
  // A pair not touching leaf0 keeps all 4 trees.
  const net::HostId src2 = topo_->hosts_on(topo_->leaves()[1])[1];
  const net::HostId dst2 = topo_->hosts_on(topo_->leaves()[2])[1];
  EXPECT_EQ(ctl_.label_map(src2).schedule(dst2)->size(), 4u);
  EXPECT_FALSE(ctl_.tree_alive(t, topo_->leaves()[1], leaf0));
  EXPECT_TRUE(ctl_.tree_alive(t, topo_->leaves()[1], topo_->leaves()[2]));
}

TEST_F(ControllerTest, IngressRerouteRestoresDeliveryAfterFailure) {
  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  DeliverySink sink;
  net::TxPort dummy_uplink(sim_, net::LinkConfig{});
  const net::HostId dst = topo_->hosts_on(leaf0)[0];
  topo_->connect_host(dst, &sink, dummy_uplink);

  const auto tl = ctl_.schedule_link_failure(leaf0, t.spine, t.group,
                                             1 * sim::kMillisecond);
  // Inject after failure but before ingress reroute: the packet follows the
  // dead tree into the spine whose leaf port is down => dropped.
  sim_.run_until(tl.failed + 100 * sim::kMicrosecond);
  net::Packet p;
  p.dst_mac = net::shadow_mac(dst, t.id);
  p.dst_host = dst;
  p.payload = 100;
  topo_->get_switch(topo_->leaves()[2]).receive(p, 0);
  sim_.run_until(tl.failover - sim::kMicrosecond);
  EXPECT_TRUE(sink.packets.empty());

  // After the ingress reroute (BGP-style fast failover window), the same
  // label detours through the backup spine and delivers.
  sim_.run_until(tl.failover + sim::kMicrosecond);
  topo_->get_switch(topo_->leaves()[2]).receive(p, 0);
  sim_.run_until(tl.failover + 10 * sim::kMillisecond);
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST_F(ControllerTest, AdjacentLeafFailoverIsImmediate) {
  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  DeliverySink sink;
  net::TxPort dummy_uplink(sim_, net::LinkConfig{});
  const net::HostId dst = topo_->hosts_on(topo_->leaves()[3])[0];
  topo_->connect_host(dst, &sink, dummy_uplink);

  const auto tl =
      ctl_.schedule_link_failure(leaf0, t.spine, t.group, sim::kMillisecond);
  // Right after the failure (before any reroute), traffic *from* leaf0 over
  // the dead tree must be redirected by the pre-installed failover group.
  sim_.run_until(tl.failed + 10 * sim::kMicrosecond);
  net::Packet p;
  p.dst_mac = net::shadow_mac(dst, t.id);
  p.dst_host = dst;
  p.payload = 100;
  topo_->get_switch(leaf0).receive(p, 0);
  sim_.run_until(tl.failed + 5 * sim::kMillisecond);
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST_F(ControllerTest, RedundantTransitionsAreCountedNoOps) {
  telemetry::TelemetryConfig tc;
  tc.metrics = true;
  telemetry::Session session(tc, sim_);
  ctl_.attach_telemetry(session.controller_probes());

  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  // Restore of a never-failed link and a double failure of the same link
  // must not throw or corrupt the failed set.
  ctl_.schedule_link_restore(leaf0, t.spine, t.group, sim::kMillisecond);
  ctl_.schedule_link_failure(leaf0, t.spine, t.group, 2 * sim::kMillisecond);
  ctl_.schedule_link_failure(leaf0, t.spine, t.group, 3 * sim::kMillisecond);
  // Failing a link that does not exist is also a counted no-op.
  ctl_.schedule_link_failure(leaf0, t.spine, 99, 4 * sim::kMillisecond);
  sim_.run_until(5 * sim::kMillisecond);
  EXPECT_EQ(ctl_.failed_link_count(), 1u);
  EXPECT_EQ(session.snapshot().counters.at("controller.noop_transitions"), 3u);

  // A restore after all that brings the set back to empty; a second restore
  // of the now-healthy link is the fourth no-op.
  ctl_.schedule_link_restore(leaf0, t.spine, t.group, 6 * sim::kMillisecond);
  ctl_.schedule_link_restore(leaf0, t.spine, t.group, 7 * sim::kMillisecond);
  sim_.run_until(8 * sim::kMillisecond);
  EXPECT_EQ(ctl_.failed_link_count(), 0u);
  EXPECT_EQ(session.snapshot().counters.at("controller.noop_transitions"), 4u);
}

TEST_F(ControllerTest, FlapRestoresFullSchedulesAndOriginalRoute) {
  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  const net::HostId dst = topo_->hosts_on(leaf0)[0];
  const net::HostId src = topo_->hosts_on(topo_->leaves()[1])[0];

  // Three quick down/up cycles, each shorter than the reaction delays.
  for (int i = 0; i < 3; ++i) {
    const sim::Time base = (1 + 4 * i) * sim::kMillisecond;
    ctl_.schedule_link_failure(leaf0, t.spine, t.group, base);
    ctl_.schedule_link_restore(leaf0, t.spine, t.group,
                               base + 2 * sim::kMillisecond);
  }
  // Past the last restore's weighted push: schedules must be whole again.
  sim_.run_until(sim::kSecond);
  EXPECT_EQ(ctl_.failed_link_count(), 0u);
  EXPECT_EQ(ctl_.label_map(src).schedule(dst)->size(), 4u);

  // And the flapped tree's label must route through its original spine
  // (no stale detour from a cancelled failover stage).
  DeliverySink sink;
  net::TxPort dummy_uplink(sim_, net::LinkConfig{});
  topo_->connect_host(dst, &sink, dummy_uplink);
  const auto before = topo_->get_switch(t.spine).total_counters();
  net::Packet p;
  p.dst_mac = net::shadow_mac(dst, t.id);
  p.dst_host = dst;
  p.payload = 100;
  topo_->get_switch(topo_->leaves()[1]).receive(p, 0);
  sim_.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  const auto after = topo_->get_switch(t.spine).total_counters();
  EXPECT_GT(after.tx_packets, before.tx_packets);
}

TEST_F(ControllerTest, RestoreBetweenStagesCancelsIngressReroute) {
  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  const net::HostId dst = topo_->hosts_on(leaf0)[0];

  const auto tl = ctl_.schedule_link_failure(leaf0, t.spine, t.group,
                                             1 * sim::kMillisecond);
  // Restore lands between the failure and the failover stage: the staged
  // ingress reroute must not fire against the healthy link.
  ctl_.schedule_link_restore(leaf0, t.spine, t.group,
                             tl.failed + sim::kMillisecond);
  sim_.run_until(tl.failover + sim::kMillisecond);

  DeliverySink sink;
  net::TxPort dummy_uplink(sim_, net::LinkConfig{});
  topo_->connect_host(dst, &sink, dummy_uplink);
  const auto before = topo_->get_switch(t.spine).total_counters();
  net::Packet p;
  p.dst_mac = net::shadow_mac(dst, t.id);
  p.dst_host = dst;
  p.payload = 100;
  topo_->get_switch(topo_->leaves()[2]).receive(p, 0);
  sim_.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  // Delivered through the original spine, not the backup detour.
  const auto after = topo_->get_switch(t.spine).total_counters();
  EXPECT_GT(after.tx_packets, before.tx_packets);
}

TEST_F(ControllerTest, RestoreKeepsConcurrentFailureDetour) {
  const Tree& t = ctl_.trees().front();
  const net::SwitchId leaf0 = topo_->leaves()[0];
  const net::SwitchId leaf1 = topo_->leaves()[1];

  // Two links of the same tree fail; only the leaf0 one is later restored.
  ctl_.schedule_link_failure(leaf0, t.spine, t.group, 1 * sim::kMillisecond);
  ctl_.schedule_link_failure(leaf1, t.spine, t.group, 1 * sim::kMillisecond);
  ctl_.schedule_link_restore(leaf0, t.spine, t.group, 400 * sim::kMillisecond);
  sim_.run_until(900 * sim::kMillisecond);
  EXPECT_EQ(ctl_.failed_link_count(), 1u);

  // Traffic into leaf0 over the tree goes through the original spine again…
  DeliverySink sink0;
  net::TxPort up0(sim_, net::LinkConfig{});
  const net::HostId dst0 = topo_->hosts_on(leaf0)[0];
  topo_->connect_host(dst0, &sink0, up0);
  net::Packet p0;
  p0.dst_mac = net::shadow_mac(dst0, t.id);
  p0.dst_host = dst0;
  p0.payload = 100;
  const auto spine_before = topo_->get_switch(t.spine).total_counters();
  topo_->get_switch(topo_->leaves()[2]).receive(p0, 0);
  sim_.run();
  ASSERT_EQ(sink0.packets.size(), 1u);
  EXPECT_GT(topo_->get_switch(t.spine).total_counters().tx_packets,
            spine_before.tx_packets);

  // …while traffic into the still-failed leaf1 keeps its backup detour and
  // still delivers (the restore must not blindly re-point the whole tree).
  DeliverySink sink1;
  net::TxPort up1(sim_, net::LinkConfig{});
  const net::HostId dst1 = topo_->hosts_on(leaf1)[0];
  topo_->connect_host(dst1, &sink1, up1);
  net::Packet p1;
  p1.dst_mac = net::shadow_mac(dst1, t.id);
  p1.dst_host = dst1;
  p1.payload = 100;
  topo_->get_switch(topo_->leaves()[2]).receive(p1, 0);
  sim_.run();
  EXPECT_EQ(sink1.packets.size(), 1u);
}

}  // namespace
}  // namespace presto::controller
