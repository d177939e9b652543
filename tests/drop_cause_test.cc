// Drop causes agree by construction: every cause a frame can die of is
// driven through one small switch + host testbed with all three observer
// roles attached the way the harness attaches them, and the per-cause
// totals must match across the component accessors (PortCounters,
// no_route_drops(), ring_drops()), the telemetry registry, the fabric
// monitor reports and a recording WireTap — with the Tracer's kDrop operand
// staying in the pinned 0..4 vocabulary.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>

#include "host/host.h"
#include "net/switch.h"
#include "net/tap.h"
#include "sim/simulation.h"
#include "telemetry/fabric/plane.h"
#include "telemetry/probes.h"

namespace presto {
namespace {

using net::DropCause;

/// Counts every drop by its unfolded cause.
class RecordingTap final : public net::WireTap {
 public:
  void on_drop(std::uint32_t, net::PortId, const net::Packet&,
               DropCause cause) override {
    ++drops[static_cast<std::size_t>(cause)];
  }
  static constexpr auto kCauses =
      static_cast<std::size_t>(DropCause::kHostRing) + 1;
  std::array<std::uint64_t, kCauses> drops{};
};

class CountingSink final : public net::PacketSink {
 public:
  void receive(net::Packet, net::PortId) override { ++received; }
  std::uint64_t received = 0;
};

/// Output port per cause (the switch also drops no-route frames, and the
/// host drops every frame it receives into a full ring).
enum Port : net::PortId {
  kFull,      ///< room for one frame: the rest hit drop-tail
  kDown,      ///< down before anything is sent
  kDownTx,    ///< goes down while its frames are queued
  kLossy,     ///< loss model eats every frame
  kCorrupt,   ///< every frame fails its checksum
  kEaten,     ///< the test eater destroys every frame, unaccounted
  kToHost,    ///< delivers into a host whose ring is always full
  kPorts,
};

net::Packet frame(net::MacAddr dst) {
  net::Packet p;
  p.dst_mac = dst;
  p.payload = 1000;
  return p;
}

TEST(DropCauses, AgreeAcrossCountersRegistryFabricAndTap) {
  sim::Simulation sim;
  telemetry::TelemetryConfig tc;
  tc.metrics = true;
  tc.trace = true;
  telemetry::Session session(tc, sim);

  net::Switch sw(sim, 0, "s0");
  std::array<CountingSink, kPorts> sinks;
  host::HostConfig hc;
  hc.ring_backlog_limit = -1;  // the receive CPU always counts as backlogged
  host::Host host(sim, 0, hc);
  for (net::PortId i = 0; i < kPorts; ++i) {
    net::LinkConfig link;
    if (i == kFull) link.queue_bytes = frame(0).buffer_bytes();
    sw.add_port(link);
    if (i == kToHost) {
      sw.port(i).connect(&host, 0);
    } else {
      sw.port(i).connect(&sinks[i], 0);
    }
    sw.install_l2(net::shadow_mac(i, i), i);
  }
  sw.port(kDown).set_down(true);
  sw.port(kLossy).set_loss_model(net::LossModel{.loss_good = 1.0}, 1);
  sw.port(kCorrupt).set_loss_model(net::LossModel{.corrupt = 1.0}, 2);
  sw.port(kEaten).set_test_packet_eater([](const net::Packet&) {
    return true;
  });

  // The three observer roles, attached as the harness attaches them.
  telemetry::fabric::FabricConfig fc;
  telemetry::fabric::FabricPlane plane(sim, fc, 7);
  plane.attach_switch(sw);
  sw.observe(net::ObserverRole::kTelemetry, session.net_observer());
  RecordingTap tap;
  sw.set_tap(&tap);
  host.set_tap(&tap);

  // Distinct counts per cause, so a swapped cause cannot balance out.
  auto send = [&](net::PortId port, int n) {
    for (int k = 0; k < n; ++k) {
      sw.receive(frame(net::shadow_mac(port, port)), 0);
    }
  };
  send(kFull, 2);     // 1 queue_full
  send(kDown, 2);     // 2 link_down
  send(kDownTx, 3);   // 3 link_down_tx
  sw.port(kDownTx).set_down(true);
  send(kLossy, 4);    // 4 loss_model
  send(kCorrupt, 5);  // 5 corrupt
  send(kEaten, 3);    // unaccounted
  for (int k = 0; k < 6; ++k) {
    sw.receive(frame(net::real_mac(99)), 0);  // 6 no_route
  }
  send(kToHost, 7);   // 7 host_ring
  sim.run();

  // Recording tap: the unfolded causes.
  const auto& t = tap.drops;
  EXPECT_EQ(t[static_cast<int>(DropCause::kQueueFull)], 1u);
  EXPECT_EQ(t[static_cast<int>(DropCause::kLinkDown)], 2u);
  EXPECT_EQ(t[static_cast<int>(DropCause::kLinkDownTx)], 3u);
  EXPECT_EQ(t[static_cast<int>(DropCause::kLossModel)], 4u);
  EXPECT_EQ(t[static_cast<int>(DropCause::kCorrupt)], 5u);
  EXPECT_EQ(t[static_cast<int>(DropCause::kNoRoute)], 6u);
  EXPECT_EQ(t[static_cast<int>(DropCause::kHostRing)], 7u);

  // Component accessors.
  EXPECT_EQ(sw.port(kFull).counters().dropped_packets, 1u);
  EXPECT_EQ(sw.port(kDown).counters().dropped_packets, 2u);
  EXPECT_EQ(sw.port(kDownTx).counters().dropped_packets, 3u);
  EXPECT_EQ(sw.port(kLossy).counters().dropped_packets, 4u);
  EXPECT_EQ(sw.port(kLossy).counters().loss_model_drops, 4u);
  EXPECT_EQ(sw.port(kCorrupt).counters().dropped_packets, 5u);
  EXPECT_EQ(sw.port(kCorrupt).counters().corrupt_drops, 5u);
  EXPECT_EQ(sw.port(kEaten).counters().dropped_packets, 0u);
  EXPECT_EQ(sw.no_route_drops(), 6u);
  EXPECT_EQ(host.ring_drops(), 7u);
  EXPECT_EQ(sinks[kEaten].received, 0u);

  // Registry counters: link-down at serialize folds into link_down; host
  // ring drops have no registry key.
  const telemetry::Snapshot snap = session.snapshot();
  EXPECT_EQ(snap.counters.at("net.port.dropped.queue_full"), 1u);
  EXPECT_EQ(snap.counters.at("net.port.dropped.link_down"), 2u + 3u);
  EXPECT_EQ(snap.counters.at("net.port.dropped.loss_model"), 4u);
  EXPECT_EQ(snap.counters.at("net.port.dropped.corrupt"), 5u);
  EXPECT_EQ(snap.counters.at("net.switch.dropped.no_route"), 6u);

  // Fabric report: per-port drops by counted cause, same fold.
  telemetry::fabric::SwitchMonitor* mon = plane.monitor(0);
  ASSERT_NE(mon, nullptr);
  const telemetry::fabric::TelemetryReport r = mon->snapshot(sim.now());
  using Drops = std::array<std::uint64_t, net::kCountedDropCauses>;
  EXPECT_EQ(r.ports[kFull].drops, (Drops{1, 0, 0, 0, 0}));
  EXPECT_EQ(r.ports[kDown].drops, (Drops{0, 2, 0, 0, 0}));
  EXPECT_EQ(r.ports[kDownTx].drops, (Drops{0, 3, 0, 0, 0}));
  EXPECT_EQ(r.ports[kLossy].drops, (Drops{0, 0, 0, 4, 0}));
  EXPECT_EQ(r.ports[kCorrupt].drops, (Drops{0, 0, 0, 0, 5}));
  EXPECT_EQ(r.ports[kEaten].drops, Drops{});
  EXPECT_EQ(r.ports[kToHost].drops, Drops{});
  EXPECT_EQ(mon->no_route_drops(), 6u);
  // Per-label drops: each port's frames ride tree `port`; no-route frames
  // carry a real MAC and land in the catch-all bucket.
  EXPECT_EQ(r.labels[kFull].drop_packets, 1u);
  EXPECT_EQ(r.labels[kDown].drop_packets, 2u);
  EXPECT_EQ(r.labels[kDownTx].drop_packets, 3u);
  EXPECT_EQ(r.labels[kLossy].drop_packets, 4u);
  EXPECT_EQ(r.labels[kCorrupt].drop_packets, 5u);
  EXPECT_EQ(r.labels[telemetry::fabric::kNonLabelBucket].drop_packets, 6u);

  // Tracer: kDrop operands stay in the counted vocabulary 0..4.
  std::map<std::uint64_t, std::uint64_t> operands;
  for (const telemetry::Event& e : session.tracer()->events()) {
    if (e.type == telemetry::EventType::kDrop) ++operands[e.a];
  }
  EXPECT_EQ(operands, (std::map<std::uint64_t, std::uint64_t>{
                          {0, 1}, {1, 5}, {2, 6}, {3, 4}, {4, 5}}));
}

}  // namespace
}  // namespace presto
