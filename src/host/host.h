// End host: NIC (TSO + interrupt coalescing), hypervisor receive chain
// (GRO -> CPU cost model -> TCP), and the sender vSwitch datapath (LB policy).
//
// Receive path (§2.2's description of the Linux chain):
//   wire -> NIC ring -> [coalesced interrupt] -> driver poll -> GRO merge ->
//   flush -> CPU model (per-packet + per-segment + per-byte work) ->
//   vSwitch/TCP demux -> TcpReceiver (ACK generation) / TcpSender (ACK intake)
//
// Transmit path (§3.1):
//   TcpSender segment template (<= 64 KB) -> SenderLb (shadow MAC + flowcell
//   stamping) -> TSO split -> uplink queue -> wire
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "lb/sender_lb.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/sink.h"
#include "net/tap.h"
#include "offload/cpu_model.h"
#include "offload/gro.h"
#include "offload/official_gro.h"
#include "offload/presto_gro.h"
#include "offload/tso.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace presto::host {

/// Which receive-offload engine the hypervisor runs.
enum class GroKind {
  kOfficial,  ///< Stock Linux GRO.
  kPresto,    ///< Presto's reordering-aware GRO (Algorithm 2).
  kNone,      ///< GRO disabled (every packet pushed individually).
};

struct HostConfig {
  net::LinkConfig uplink;                 ///< Host -> edge-switch link.
  offload::CpuCosts cpu_costs;
  GroKind gro = GroKind::kOfficial;
  offload::PrestoGroConfig presto_gro;
  tcp::TcpConfig tcp;

  /// NIC interrupt coalescing: fire when this many packets are waiting...
  /// (models adaptive-rx under 10 GbE load; larger batches let GRO build
  /// near-64 KB segments as on the paper's testbed).
  std::uint32_t coalesce_packets = 128;
  /// ...or this long after the first packet of a batch arrived.
  sim::Time coalesce_delay = 50 * sim::kMicrosecond;
  /// Sender-side OS/NIC scheduling jitter: each egress segment is delayed by
  /// uniform[0, tx_jitter) while preserving per-host order. Real hosts show
  /// microsecond-scale burst jitter (Kapoor et al., "Bullet Trains",
  /// CoNEXT'13 — the paper's [34]); without it, deterministic round-robin
  /// spraying stays artificially synchronized and never reorders.
  sim::Time tx_jitter = 2 * sim::kMicrosecond;
  /// Rare long stalls (OS scheduler preemption, softirq storms): with this
  /// probability an egress segment is additionally delayed by
  /// uniform[preempt_min, preempt_max). These sub-millisecond pauses are the
  /// natural source of the >=500 us inter-segment gaps that create flowlets
  /// in real transfers (the paper's Figure 1).
  double preempt_probability = 0.002;
  sim::Time preempt_min = 200 * sim::kMicrosecond;
  sim::Time preempt_max = 1 * sim::kMillisecond;
  std::uint64_t jitter_seed = 0x6a77;
  /// Per-ACK stack cost (ACKs bypass GRO aggregation).
  sim::Time per_ack_cost = 300 * sim::kNanosecond;
  /// Model of ring overflow: packets are dropped while the receive CPU is
  /// backlogged beyond this bound (receive livelock protection).
  sim::Time ring_backlog_limit = 2 * sim::kMillisecond;
  /// Re-flush cadence while Presto GRO holds segments (so held segments
  /// cannot stall when the NIC goes idle).
  sim::Time held_flush_interval = 20 * sim::kMicrosecond;
  /// GRO-layer telemetry probes (null disables; set by the harness — TCP
  /// probes travel inside `tcp.telemetry`).
  const telemetry::GroProbes* gro_telemetry = nullptr;

  /// Flight recorder (null disables; set by the harness). The sampler gets
  /// per-flow cwnd/srtt series for the first few senders created on this
  /// host; the span tracer is handed to every receiver so in-order
  /// delivery closes flowcell spans.
  telemetry::TimeSeriesSampler* sampler = nullptr;
  telemetry::SpanTracer* span_tracer = nullptr;
};

class Host : public net::PacketSink {
 public:
  using SegmentTap = std::function<void(const offload::Segment&)>;

  Host(sim::Simulation& sim, net::HostId id, HostConfig cfg);

  net::HostId id() const { return id_; }
  net::TxPort& uplink() { return uplink_; }

  /// Installs the sender vSwitch policy (Presto, ECMP, flowlet, ...).
  /// nullptr means real-MAC routing with no metadata stamping.
  void set_lb(std::unique_ptr<lb::SenderLb> policy) {
    lb_ = std::move(policy);
  }
  lb::SenderLb* lb() { return lb_.get(); }

  /// Creates the sending endpoint of a connection rooted at this host.
  tcp::TcpSender& create_sender(const net::FlowKey& flow);
  tcp::TcpSender& create_sender(const net::FlowKey& flow,
                                const tcp::TcpConfig& tcp_cfg);
  /// Creates the receiving endpoint for `data_flow` (dst must be this host).
  tcp::TcpReceiver& create_receiver(const net::FlowKey& data_flow);

  tcp::TcpSender* find_sender(const net::FlowKey& flow);
  tcp::TcpReceiver* find_receiver(const net::FlowKey& flow);

  /// Observes every GRO-pushed segment after the CPU stage (metrics).
  void add_segment_tap(SegmentTap tap) { taps_.push_back(std::move(tap)); }

  /// Attaches a checker wire tap (null disables), replacing only the
  /// previous checker: observes uplink enqueue/tx/drops (node =
  /// kHostNodeBit | id), frames accepted into the receive ring, and
  /// ring-overflow drops.
  void set_tap(net::WireTap* tap) {
    observers_.set(net::ObserverRole::kChecker, tap);
    uplink_.set_observer(net::ObserverRole::kChecker, tap);
  }

  /// Checker access to the TCP endpoints living on this host.
  template <typename Fn>
  void for_each_sender(Fn&& fn) {
    for (auto& [flow, sender] : senders_) fn(*sender);
  }
  template <typename Fn>
  void for_each_receiver(Fn&& fn) {
    for (auto& [flow, receiver] : receivers_) fn(*receiver);
  }

  /// Entry point for locally generated traffic (TCP senders/receivers call
  /// this; tests may inject templates directly). Applies tx jitter, then the
  /// vSwitch LB policy, TSO, and the uplink queue.
  void egress_segment(net::Packet&& seg);

  // PacketSink: a frame arrived from the edge switch.
  void receive(net::Packet p, net::PortId in_port) override;

  const offload::CpuModel& cpu() const { return cpu_; }
  const net::PortCounters& uplink_counters() const {
    return uplink_.counters();
  }
  std::uint64_t ring_drops() const { return ring_drops_; }
  std::uint64_t orphan_segments() const { return orphan_segments_; }
  offload::GroEngine* gro() { return gro_.get(); }
  const HostConfig& config() const { return cfg_; }

  /// Folds this host's full datapath state — TCP endpoints, GRO engine, LB
  /// policy, receive ring, uplink counters — into a checkpoint state digest
  /// (src/check/soak).
  void digest_state(sim::Digest& d) const;

 private:
  void nic_interrupt();
  void held_flush();
  void schedule_held_flush();
  /// Prices pushed segments + acks and hands them to the CPU model.
  void dispatch(std::vector<offload::Segment> segments,
                std::vector<net::Packet> acks, sim::Time batch_cost);
  void deliver_segment(const offload::Segment& s);
  void deliver_ack(const net::Packet& p);
  /// Post-jitter egress: LB stamping + TSO split + uplink enqueue.
  void egress_now(net::Packet&& seg);

  /// Spare-vector freelists: interrupt batches hand their capacity back once
  /// the CPU-model callback delivers them, so steady-state polls reuse grown
  /// vectors instead of reallocating each interrupt.
  template <typename T>
  static std::vector<T> take_spare(std::vector<std::vector<T>>& spares) {
    if (spares.empty()) return {};
    std::vector<T> v = std::move(spares.back());
    spares.pop_back();
    return v;
  }
  template <typename T>
  static void recycle(std::vector<std::vector<T>>& spares,
                      std::vector<T>&& v) {
    if (spares.size() >= kMaxSpares || v.capacity() == 0) return;
    v.clear();
    spares.push_back(std::move(v));
  }

  sim::Simulation& sim_;
  net::HostId id_;
  HostConfig cfg_;
  net::TxPort uplink_;
  sim::Rng jitter_rng_;
  sim::Time egress_free_at_ = 0;
  std::unique_ptr<lb::SenderLb> lb_;
  std::unique_ptr<offload::GroEngine> gro_;
  offload::CpuModel cpu_;

  std::vector<net::Packet> ring_;
  /// Slots for jitter-delayed egress segments (see egress_segment()).
  net::PacketPool jitter_pool_;
  bool interrupt_scheduled_ = false;
  bool held_flush_pending_ = false;
  std::uint32_t flow_series_made_ = 0;
  std::uint64_t ring_drops_ = 0;
  std::uint64_t orphan_segments_ = 0;

  /// Segments pushed by GRO during the current poll (drained by dispatch()).
  std::vector<offload::Segment> pending_segments_;
  std::vector<net::Packet> tso_scratch_;
  static constexpr std::size_t kMaxSpares = 8;
  std::vector<std::vector<offload::Segment>> seg_spares_;
  std::vector<std::vector<net::Packet>> ack_spares_;

  std::unordered_map<net::FlowKey, std::unique_ptr<tcp::TcpSender>,
                     net::FlowKeyHash>
      senders_;
  std::unordered_map<net::FlowKey, std::unique_ptr<tcp::TcpReceiver>,
                     net::FlowKeyHash>
      receivers_;
  std::vector<SegmentTap> taps_;
  net::ObserverSet observers_;
};

}  // namespace presto::host
