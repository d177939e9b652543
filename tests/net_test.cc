// Unit tests for ports, switches, and topology builders.
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/switch.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace presto::net {
namespace {

/// Collects delivered packets with their arrival times.
class SinkRecorder : public PacketSink {
 public:
  explicit SinkRecorder(sim::Simulation& sim) : sim_(sim) {}
  void receive(Packet p, PortId in_port) override {
    packets.push_back(std::move(p));
    in_ports.push_back(in_port);
    times.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<PortId> in_ports;
  std::vector<sim::Time> times;

 private:
  sim::Simulation& sim_;
};

Packet make_packet(std::uint32_t payload, HostId dst = 1) {
  Packet p;
  p.dst_mac = real_mac(dst);
  p.dst_host = dst;
  p.payload = payload;
  return p;
}

TEST(Mac, EncodingRoundTrips) {
  const MacAddr r = real_mac(123);
  EXPECT_FALSE(is_shadow_mac(r));
  EXPECT_EQ(mac_host(r), 123u);
  const MacAddr s = shadow_mac(77, 5);
  EXPECT_TRUE(is_shadow_mac(s));
  EXPECT_EQ(mac_host(s), 77u);
  EXPECT_EQ(mac_tree(s), 5u);
  EXPECT_NE(real_mac(77), s);
  EXPECT_NE(shadow_mac(77, 4), s);
}

TEST(TxPort, SerializationTiming) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.rate_bps = 10e9;
  cfg.propagation = 1000;
  TxPort port(sim, cfg);
  SinkRecorder sink(sim);
  port.connect(&sink, 7);

  Packet p = make_packet(1448);
  port.enqueue(p);
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.in_ports[0], 7);
  // wire = 1448 + 66 + 20 = 1534 B -> 1227.2 ns at 10 Gbps, + 1000 ns prop.
  EXPECT_NEAR(static_cast<double>(sink.times[0]), 1227 + 1000, 2);
}

TEST(TxPort, BackToBackSerialization) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.rate_bps = 10e9;
  cfg.propagation = 0;
  TxPort port(sim, cfg);
  SinkRecorder sink(sim);
  port.connect(&sink, 0);
  for (int i = 0; i < 3; ++i) port.enqueue(make_packet(1448));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  // Spacing equals one serialization time.
  EXPECT_NEAR(static_cast<double>(sink.times[1] - sink.times[0]), 1227, 2);
  EXPECT_NEAR(static_cast<double>(sink.times[2] - sink.times[1]), 1227, 2);
}

TEST(TxPort, DropTailAccountsDrops) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.queue_bytes = 3000;  // fits ~2 full frames (1514 each)
  TxPort port(sim, cfg);
  SinkRecorder sink(sim);
  port.connect(&sink, 0);
  for (int i = 0; i < 5; ++i) port.enqueue(make_packet(1448));
  sim.run();
  const PortCounters& c = port.counters();
  EXPECT_GT(c.dropped_packets, 0u);
  EXPECT_EQ(c.enqueued_packets + c.dropped_packets, 5u);
  EXPECT_EQ(sink.packets.size(), c.enqueued_packets);
}

TEST(TxPort, DownPortDropsEverything) {
  sim::Simulation sim;
  TxPort port(sim, LinkConfig{});
  SinkRecorder sink(sim);
  port.connect(&sink, 0);
  port.set_down(true);
  port.enqueue(make_packet(100));
  sim.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(port.counters().dropped_packets, 1u);
}

/// Serialization time by the expression TxPort has always used.
sim::Time ser_ns(std::uint32_t wire_bytes, double rate_bps) {
  const double bits = 8.0 * wire_bytes;
  return static_cast<sim::Time>(bits / rate_bps * 1e9 + 0.5);
}

TEST(TxPort, InterleavedFrameSizesKeepExactDeliveryTimes) {
  // ACK-sized (86 B on the wire), full (1534 B) and odd-sized frames back
  // to back: every delivery lands on the sum of the per-frame
  // serialization times plus the propagation delay.
  const std::uint32_t payloads[] = {0,    1448, 0,   0,    1448, 500, 1448,
                                    0,    1448, 1448, 500, 0,    7,   1448,
                                    1448, 0,    0,   500,  0,    1448};
  for (const double rate : {10e9, 40e9, 9.7e9}) {
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.rate_bps = rate;
    cfg.propagation = 1000;
    TxPort port(sim, cfg);
    SinkRecorder sink(sim);
    port.connect(&sink, 0);
    for (std::uint32_t payload : payloads) port.enqueue(make_packet(payload));
    sim.run();
    ASSERT_EQ(sink.packets.size(), std::size(payloads));
    sim::Time done = 0;
    for (std::size_t i = 0; i < std::size(payloads); ++i) {
      done += ser_ns(payloads[i] + kHeaderBytes + kFramingBytes, rate);
      EXPECT_EQ(sink.packets[i].payload, payloads[i]);
      EXPECT_EQ(sink.times[i], done + 1000) << "rate " << rate << " frame "
                                             << i;
    }
  }
}

/// A frame whose fields all derive from `seq`, so a delivered copy shows
/// which frame it was and whether any field was clobbered.
Packet numbered(std::uint64_t seq, std::uint32_t payload = 100) {
  Packet p = make_packet(payload);
  p.seq = seq;
  p.flowcell_id = 1000 + seq;
  p.span_id = static_cast<std::uint32_t>(7 * seq + 1);
  return p;
}

void expect_numbered(const Packet& p, std::uint64_t seq) {
  EXPECT_EQ(p.seq, seq);
  EXPECT_EQ(p.flowcell_id, 1000 + seq);
  EXPECT_EQ(p.span_id, 7 * seq + 1);
}

TEST(TxPort, DropsAtSerializationLeaveOlderWireFramesIntact) {
  // Propagation (5 us) is far longer than serialization (149 ns per
  // 186 B frame), so frames 0 and 1 are still on the wire while frames 2-4
  // finish serializing under a fault and are destroyed there. Each fault
  // must drop exactly those three and deliver the rest, in order, on time.
  enum class Fault { kEater, kDown, kLossModel };
  constexpr std::uint32_t kFrameBytes = 100 + kHeaderBytes;  // buffered
  constexpr sim::Time kProp = 5000;
  const sim::Time ser = ser_ns(kFrameBytes + kFramingBytes, 10e9);
  ASSERT_EQ(ser, 149);
  for (const Fault fault : {Fault::kEater, Fault::kDown, Fault::kLossModel}) {
    sim::Simulation sim;
    LinkConfig cfg;
    cfg.propagation = kProp;
    TxPort port(sim, cfg);
    SinkRecorder sink(sim);
    port.connect(&sink, 0);
    bool eating = false;
    port.set_test_packet_eater([&eating](const Packet&) { return eating; });
    for (std::uint64_t i = 0; i < 8; ++i) port.enqueue(numbered(i));
    sim.run_until(2 * ser + 1);  // 0 and 1 on the wire, 2 serializing
    switch (fault) {
      case Fault::kEater: eating = true; break;
      case Fault::kDown: port.set_down(true); break;
      case Fault::kLossModel: {
        LossModel always;
        always.loss_good = 1.0;
        port.set_loss_model(always, 1);
        break;
      }
    }
    sim.run_until(5 * ser + 1);  // 2-4 destroyed, 5 serializing
    eating = false;
    port.set_down(false);
    port.clear_loss_model();
    sim.run();

    const std::uint64_t delivered[] = {0, 1, 5, 6, 7};
    ASSERT_EQ(sink.packets.size(), std::size(delivered));
    for (std::size_t k = 0; k < std::size(delivered); ++k) {
      expect_numbered(sink.packets[k], delivered[k]);
      EXPECT_EQ(sink.times[k],
                static_cast<sim::Time>(delivered[k] + 1) * ser + kProp);
    }
    const PortCounters& c = port.counters();
    EXPECT_EQ(c.enqueued_packets, 8u);
    EXPECT_EQ(c.tx_packets, 8u);
    EXPECT_EQ(c.tx_bytes, 8u * kFrameBytes);
    const std::uint64_t dropped = fault == Fault::kEater ? 0 : 3;
    EXPECT_EQ(c.dropped_packets, dropped);
    EXPECT_EQ(c.dropped_bytes, dropped * kFrameBytes);
    PortCounters want;
    if (fault == Fault::kDown) {
      want.drops[static_cast<std::size_t>(DropCause::kLinkDown)] = 3;
    }
    if (fault == Fault::kLossModel) {
      want.drops[static_cast<std::size_t>(DropCause::kLossModel)] = 3;
    }
    EXPECT_EQ(c.drops, want.drops);
    EXPECT_EQ(port.queued_bytes(), 0u);
  }
}

TEST(TxPort, RingGrowsWhileFramesAreOnTheWire) {
  // A first burst moves the ring's running indices off slot 0; the second
  // queues far deeper than the first ring, so it grows (more than once)
  // while earlier frames of the burst are still propagating.
  constexpr sim::Time kProp = 5000;
  const sim::Time ser = ser_ns(100 + kHeaderBytes + kFramingBytes, 10e9);
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.propagation = kProp;
  TxPort port(sim, cfg);
  SinkRecorder sink(sim);
  port.connect(&sink, 0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 6; ++i) port.enqueue(numbered(seq++));
  sim.run();
  const sim::Time t0 = sim.now();
  for (int i = 0; i < 10; ++i) port.enqueue(numbered(seq++));
  sim.run_until(t0 + 3 * ser + 1);  // three on the wire, one serializing
  for (int i = 0; i < 40; ++i) port.enqueue(numbered(seq++));
  sim.run();
  ASSERT_EQ(sink.packets.size(), seq);
  for (std::uint64_t i = 0; i < seq; ++i) expect_numbered(sink.packets[i], i);
  for (std::uint64_t j = 0; j < 50; ++j) {
    EXPECT_EQ(sink.times[6 + j],
              t0 + static_cast<sim::Time>(j + 1) * ser + kProp);
  }
  EXPECT_EQ(port.counters().tx_packets, seq);
  EXPECT_EQ(port.counters().dropped_packets, 0u);
}

/// Sends two new frames back into the port it listens to for each of the
/// first frames it receives, from inside receive().
class EchoSink : public PacketSink {
 public:
  EchoSink(TxPort& port, std::uint64_t limit) : port_(port), limit_(limit) {}
  void receive(Packet p, PortId) override {
    const std::uint64_t got = p.seq;
    for (int i = 0; i < 2 && next < limit_; ++i) {
      port_.enqueue(numbered(next++));
    }
    // The by-value frame is this receive's own copy: the enqueues above,
    // which may grow the ring, must not have changed it.
    expect_numbered(p, got);
    received.push_back(got);
  }
  std::uint64_t next = 0;
  std::vector<std::uint64_t> received;

 private:
  TxPort& port_;
  std::uint64_t limit_;
};

TEST(TxPort, SinkEnqueuingIntoTheSamePortFromReceive) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.propagation = 5000;
  TxPort port(sim, cfg);
  EchoSink sink(port, 100);
  port.connect(&sink, 0);
  for (int i = 0; i < 4; ++i) port.enqueue(numbered(sink.next++));
  sim.run();
  ASSERT_EQ(sink.received.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(sink.received[i], i);
  EXPECT_EQ(port.counters().tx_packets, 100u);
  EXPECT_EQ(port.counters().dropped_packets, 0u);
}

TEST(Switch, L2ExactMatchForwarding) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  SinkRecorder sink0(sim), sink1(sim);
  const PortId p0 = sw.add_port(LinkConfig{});
  const PortId p1 = sw.add_port(LinkConfig{});
  sw.port(p0).connect(&sink0, 0);
  sw.port(p1).connect(&sink1, 0);
  sw.install_l2(real_mac(1), p0);
  sw.install_l2(shadow_mac(1, 3), p1);

  sw.receive(make_packet(100, 1), 0);
  Packet shadow = make_packet(100, 1);
  shadow.dst_mac = shadow_mac(1, 3);
  sw.receive(shadow, 0);
  sim.run();
  EXPECT_EQ(sink0.packets.size(), 1u);
  EXPECT_EQ(sink1.packets.size(), 1u);
}

TEST(Switch, NoRouteDrops) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  sw.add_port(LinkConfig{});
  sw.receive(make_packet(100, 9), 0);
  sim.run();
  EXPECT_EQ(sw.no_route_drops(), 1u);
}

TEST(Switch, EcmpGroupIsFlowConsistent) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  SinkRecorder sinks[4] = {SinkRecorder(sim), SinkRecorder(sim),
                           SinkRecorder(sim), SinkRecorder(sim)};
  std::vector<PortId> members;
  for (int i = 0; i < 4; ++i) {
    const PortId p = sw.add_port(LinkConfig{});
    sw.port(p).connect(&sinks[i], 0);
    members.push_back(p);
  }
  sw.install_ecmp_group(1, members);

  // Same flow always hashes to the same port.
  Packet p = make_packet(100, 1);
  p.dst_mac = 0xDEAD;  // no L2 match -> ECMP path
  p.flow = FlowKey{0, 1, 1234, 80};
  for (int i = 0; i < 10; ++i) sw.receive(p, 0);
  sim.run();
  int nonempty = 0;
  for (auto& s : sinks) {
    if (!s.packets.empty()) {
      ++nonempty;
      EXPECT_EQ(s.packets.size(), 10u);
    }
  }
  EXPECT_EQ(nonempty, 1);
}

TEST(Switch, EcmpSpreadsAcrossFlows) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  SinkRecorder sinks[4] = {SinkRecorder(sim), SinkRecorder(sim),
                           SinkRecorder(sim), SinkRecorder(sim)};
  std::vector<PortId> members;
  for (int i = 0; i < 4; ++i) {
    const PortId p = sw.add_port(LinkConfig{});
    sw.port(p).connect(&sinks[i], 0);
    members.push_back(p);
  }
  sw.install_ecmp_group(1, members);
  for (std::uint32_t sport = 0; sport < 256; ++sport) {
    Packet p = make_packet(100, 1);
    p.dst_mac = 0xDEAD;
    p.flow = FlowKey{0, 1, sport, 80};
    sw.receive(p, 0);
  }
  sim.run();
  for (auto& s : sinks) {
    EXPECT_GT(s.packets.size(), 30u);  // roughly uniform over 4 ports
  }
}

TEST(Switch, EcmpExtraSaltChangesPath) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  SinkRecorder sinks[4] = {SinkRecorder(sim), SinkRecorder(sim),
                           SinkRecorder(sim), SinkRecorder(sim)};
  std::vector<PortId> members;
  for (int i = 0; i < 4; ++i) {
    const PortId p = sw.add_port(LinkConfig{});
    sw.port(p).connect(&sinks[i], 0);
    members.push_back(p);
  }
  sw.install_ecmp_group(1, members);
  // One flow, many flowcell salts (Presto + ECMP): must hit several ports.
  for (std::uint64_t fc = 0; fc < 64; ++fc) {
    Packet p = make_packet(100, 1);
    p.dst_mac = 0xDEAD;
    p.flow = FlowKey{0, 1, 1234, 80};
    p.ecmp_extra = fc;
    sw.receive(p, 0);
  }
  sim.run();
  int nonempty = 0;
  for (auto& s : sinks) nonempty += s.packets.empty() ? 0 : 1;
  EXPECT_GE(nonempty, 3);
}

TEST(Switch, FailoverRedirectsToBackup) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  SinkRecorder primary_sink(sim), backup_sink(sim);
  const PortId primary = sw.add_port(LinkConfig{});
  const PortId backup = sw.add_port(LinkConfig{});
  sw.port(primary).connect(&primary_sink, 0);
  sw.port(backup).connect(&backup_sink, 0);
  sw.install_l2(real_mac(1), primary);
  sw.install_failover(primary, backup);

  sw.receive(make_packet(100, 1), 0);
  sim.run();  // deliver before the link goes down
  sw.port(primary).set_down(true);
  sw.receive(make_packet(100, 1), 0);
  sim.run();
  EXPECT_EQ(primary_sink.packets.size(), 1u);
  EXPECT_EQ(backup_sink.packets.size(), 1u);
}

TEST(Switch, EcmpSkipsDownMembers) {
  sim::Simulation sim;
  Switch sw(sim, 0, "sw");
  SinkRecorder s0(sim), s1(sim);
  const PortId p0 = sw.add_port(LinkConfig{});
  const PortId p1 = sw.add_port(LinkConfig{});
  sw.port(p0).connect(&s0, 0);
  sw.port(p1).connect(&s1, 0);
  sw.install_ecmp_group(1, {p0, p1});
  sw.port(p0).set_down(true);
  for (std::uint32_t sport = 0; sport < 32; ++sport) {
    Packet p = make_packet(100, 1);
    p.dst_mac = 0xDEAD;
    p.flow = FlowKey{0, 1, sport, 80};
    sw.receive(p, 0);
  }
  sim.run();
  EXPECT_TRUE(s0.packets.empty());
  EXPECT_EQ(s1.packets.size(), 32u);
}

TEST(Switch, EcmpPickMatchesTheLiveMemberVectorReference) {
  // ecmp_pick counts live members instead of collecting them; it must
  // choose exactly what hashing over a vector of the live members chose.
  auto reference = [](const std::vector<PortId>& members, std::uint64_t h,
                      const std::vector<bool>& down) {
    std::vector<PortId> alive;
    for (PortId m : members) {
      if (!down[static_cast<std::size_t>(m)]) alive.push_back(m);
    }
    const auto& pool = alive.empty() ? members : alive;
    return pool[h % pool.size()];
  };
  sim::Rng rng(0xEC3B);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t ports = 1 + rng.below(12);
    std::vector<bool> down(ports);
    // Mix all-up, all-down and random down-sets.
    const std::uint64_t mode = rng.below(4);
    for (std::size_t i = 0; i < ports; ++i) {
      down[i] = mode == 0 ? false : mode == 1 ? true : rng.below(2) == 0;
    }
    std::vector<PortId> members(1 + rng.below(8));
    for (PortId& m : members) m = static_cast<PortId>(rng.below(ports));
    const std::uint64_t h = rng.next();
    const PortId got = ecmp_pick(members, h, [&](PortId m) {
      return static_cast<bool>(down[static_cast<std::size_t>(m)]);
    });
    ASSERT_EQ(got, reference(members, h, down)) << "trial " << trial;
  }
  EXPECT_EQ(ecmp_pick({}, 7, [](PortId) { return false; }), kInvalidPort);
}

TEST(Topology, ClosShape) {
  sim::Simulation sim;
  auto topo = make_clos(sim, 4, 4, 4);
  EXPECT_EQ(topo->spines().size(), 4u);
  EXPECT_EQ(topo->leaves().size(), 4u);
  EXPECT_EQ(topo->host_count(), 16u);
  EXPECT_EQ(topo->fabric_links().size(), 16u);  // 4 leaves x 4 spines
  for (HostId h = 0; h < 16; ++h) {
    const SwitchId leaf = topo->host(h).edge_switch;
    EXPECT_EQ(leaf, topo->leaves()[h / 4]);
  }
  EXPECT_EQ(topo->hosts_on(topo->leaves()[2]).size(), 4u);
}

TEST(Topology, GammaParallelLinks) {
  sim::Simulation sim;
  TopoParams params;
  params.gamma = 2;
  auto topo = make_clos(sim, 2, 2, 1, params);
  EXPECT_EQ(topo->fabric_links().size(), 8u);  // 2x2x2
}

TEST(Topology, SingleSwitch) {
  sim::Simulation sim;
  auto topo = make_single_switch(sim, 16);
  EXPECT_EQ(topo->switch_count(), 1u);
  EXPECT_EQ(topo->host_count(), 16u);
  EXPECT_TRUE(topo->spines().empty());
}

TEST(Topology, FabricLinkFailure) {
  sim::Simulation sim;
  auto topo = make_clos(sim, 2, 2, 1);
  const FabricLink& fl = topo->fabric_links().front();
  EXPECT_TRUE(topo->set_fabric_link_down(fl.leaf, fl.spine, fl.group, true));
  EXPECT_TRUE(topo->get_switch(fl.leaf).port(fl.leaf_port).down());
  EXPECT_TRUE(topo->get_switch(fl.spine).port(fl.spine_port).down());
  EXPECT_TRUE(topo->set_fabric_link_down(fl.leaf, fl.spine, fl.group, false));
  EXPECT_FALSE(topo->get_switch(fl.leaf).port(fl.leaf_port).down());
  EXPECT_FALSE(topo->set_fabric_link_down(99, 99, 0, true));
}

TEST(Packet, WireAndBufferBytes) {
  Packet p = make_packet(1448);
  EXPECT_EQ(p.wire_bytes(), 1448u + 66 + 20);
  EXPECT_EQ(p.buffer_bytes(), 1448u + 66);
  EXPECT_EQ(p.end_seq(), p.seq + 1448);
}

// ---------------------------------------------------------------------------
// PacketPool: slot recycling without cross-incarnation leakage
// ---------------------------------------------------------------------------

/// A packet with every field set to a distinctive non-default value.
Packet fully_dirty_packet() {
  Packet p;
  p.dst_mac = shadow_mac(7, 3);
  p.src_host = 11;
  p.dst_host = 22;
  p.flow = FlowKey{11, 22, 1111, 2222};
  p.seq = 0xABCDEF;
  p.payload = 1448;
  p.ack = 0x123456;
  p.is_ack = true;
  p.is_retx = true;
  p.sack = {SackBlock{1, 2}, SackBlock{3, 4}, SackBlock{5, 6}};
  p.ts_echo = 777;
  p.ts_sent = 888;
  p.flowcell_id = 99;
  p.ecmp_extra = 0xFEED;
  p.span_id = 42;
  return p;
}

void expect_default(const Packet& p) {
  const Packet d;
  EXPECT_EQ(p.dst_mac, d.dst_mac);
  EXPECT_EQ(p.src_host, d.src_host);
  EXPECT_EQ(p.dst_host, d.dst_host);
  EXPECT_EQ(p.flow, d.flow);
  EXPECT_EQ(p.seq, d.seq);
  EXPECT_EQ(p.payload, d.payload);
  EXPECT_EQ(p.ack, d.ack);
  EXPECT_EQ(p.is_ack, d.is_ack);
  EXPECT_EQ(p.is_retx, d.is_retx);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p.sack[static_cast<std::size_t>(i)].start,
              d.sack[static_cast<std::size_t>(i)].start);
    EXPECT_EQ(p.sack[static_cast<std::size_t>(i)].end,
              d.sack[static_cast<std::size_t>(i)].end);
  }
  EXPECT_EQ(p.ts_echo, d.ts_echo);
  EXPECT_EQ(p.ts_sent, d.ts_sent);
  EXPECT_EQ(p.flowcell_id, d.flowcell_id);
  EXPECT_EQ(p.ecmp_extra, d.ecmp_extra);
  EXPECT_EQ(p.span_id, d.span_id);
}

TEST(PacketPool, ReacquiredSlotNeverLeaksPreviousIncarnation) {
  PacketPool pool;
  Packet* slot = pool.acquire(fully_dirty_packet());
  pool.release(slot);
  // Drain the whole freelist through acquire(): every slot — including the
  // one the dirty packet lived in — must come back default-constructed
  // (span_id, flowcell_id, SACK blocks, retx flags all cleared).
  std::vector<Packet*> all;
  bool saw_reused = false;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    Packet* p = pool.acquire();
    expect_default(*p);
    saw_reused |= (p == slot);
    all.push_back(p);
  }
  EXPECT_TRUE(saw_reused);
  EXPECT_EQ(pool.in_use(), pool.capacity());
  for (Packet* p : all) pool.release(p);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPool, AcquireAssignOverwritesEveryFieldOfADirtySlot) {
  PacketPool pool;
  // Dirty every slot in the first chunk, then recycle them all.
  std::vector<Packet*> slots;
  for (int i = 0; i < 64; ++i) slots.push_back(pool.acquire(fully_dirty_packet()));
  for (Packet* p : slots) pool.release(p);
  // The assign path must leave exactly the new packet's fields — nothing
  // inherited from the dirty incarnation.
  Packet fresh;
  fresh.payload = 100;
  fresh.seq = 5;
  Packet* p = pool.acquire(Packet{fresh});
  EXPECT_EQ(p->payload, 100u);
  EXPECT_EQ(p->seq, 5u);
  EXPECT_EQ(p->span_id, 0u);
  EXPECT_EQ(p->flowcell_id, 0u);
  EXPECT_FALSE(p->is_retx);
  EXPECT_FALSE(p->is_ack);
  EXPECT_EQ(p->sack[0].start, 0u);
  EXPECT_EQ(p->sack[0].end, 0u);
  pool.release(p);
}

TEST(PacketPool, ChurnReusesCapacityInsteadOfGrowing) {
  PacketPool pool;
  sim::Simulation sim;
  std::vector<Packet*> live;
  // Churn: interleave acquires and releases, never holding more than one
  // chunk's worth — capacity must stay at exactly one chunk.
  for (int round = 0; round < 1000; ++round) {
    while (live.size() < 48) live.push_back(pool.acquire(fully_dirty_packet()));
    while (live.size() > 16) {
      pool.release(live.back());
      live.pop_back();
    }
  }
  EXPECT_EQ(pool.capacity(), 64u);
  EXPECT_EQ(pool.in_use(), live.size());
  for (Packet* p : live) pool.release(p);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPool, TxPortRecyclesInFlightSlots) {
  // End-to-end through TxPort: consecutive frames delivered through the
  // port's ring must each carry their own fields (no slot aliasing).
  sim::Simulation sim;
  LinkConfig cfg;
  TxPort port(sim, cfg);
  SinkRecorder sink(sim);
  port.connect(&sink, 3);
  for (std::uint32_t i = 0; i < 200; ++i) {
    Packet p = make_packet(1000 + i);
    p.seq = i;
    p.flowcell_id = 1000 + i;
    port.enqueue(std::move(p));
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(sink.packets[i].seq, i);
    EXPECT_EQ(sink.packets[i].flowcell_id, 1000 + i);
    EXPECT_EQ(sink.packets[i].payload, 1000 + i);
  }
}

}  // namespace
}  // namespace presto::net
