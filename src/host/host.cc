#include "host/host.h"

#include <string>
#include <utility>

namespace presto::host {

Host::Host(sim::Simulation& sim, net::HostId id, HostConfig cfg)
    : sim_(sim),
      id_(id),
      cfg_(std::move(cfg)),
      uplink_(sim, cfg_.uplink, net::kHostNodeBit | id, 0),
      jitter_rng_(cfg_.jitter_seed ^ (0x9E37ULL * (id + 1))),
      cpu_(sim, cfg_.cpu_costs) {
  auto push = [this](offload::Segment s) {
    pending_segments_.push_back(std::move(s));
  };
  switch (cfg_.gro) {
    case GroKind::kOfficial:
      gro_ = std::make_unique<offload::OfficialGro>(push);
      break;
    case GroKind::kPresto:
      gro_ = std::make_unique<offload::PrestoGro>(push, cfg_.presto_gro);
      break;
    case GroKind::kNone:
      gro_ = nullptr;
      break;
  }
  if (gro_ != nullptr && cfg_.gro_telemetry != nullptr) {
    gro_->attach_telemetry(cfg_.gro_telemetry, id_);
  }
}

tcp::TcpSender& Host::create_sender(const net::FlowKey& flow) {
  return create_sender(flow, cfg_.tcp);
}

tcp::TcpSender& Host::create_sender(const net::FlowKey& flow,
                                    const tcp::TcpConfig& tcp_cfg) {
  tcp::TcpConfig cfg = tcp_cfg;
  // Route loss-recovery signals into the vSwitch LB policy so path-aware
  // policies (FlowcellEngine suspicion) can react locally; pre-set hooks
  // (e.g. from MPTCP's per-subflow wiring) are preserved.
  if (!cfg.on_retransmit) {
    cfg.on_retransmit = [this](const net::FlowKey& f, std::uint64_t hole,
                               bool timeout) {
      if (lb_ != nullptr) lb_->on_loss_signal(f, hole, timeout);
    };
  }
  if (!cfg.on_spurious_recovery) {
    cfg.on_spurious_recovery = [this](const net::FlowKey& f) {
      if (lb_ != nullptr) lb_->on_recovery_signal(f);
    };
  }
  if (!cfg.on_ack_progress) {
    cfg.on_ack_progress = [this](const net::FlowKey& f, std::uint64_t acked,
                                 sim::Time srtt) {
      if (lb_ != nullptr) lb_->on_ack_progress(f, acked, srtt);
    };
  }
  auto sender = std::make_unique<tcp::TcpSender>(
      sim_, flow, cfg,
      [this](net::Packet&& seg) { egress_segment(std::move(seg)); });
  auto [it, inserted] = senders_.insert_or_assign(flow, std::move(sender));
  (void)inserted;
  // The flight recorder samples cwnd/srtt of the first senders created on
  // this host.
  constexpr std::uint32_t kFlowSeries = 4;
  if (cfg_.sampler != nullptr && flow_series_made_ < kFlowSeries) {
    // Sample through find_sender, not the TcpSender pointer: a later
    // insert_or_assign for the same flow must not leave a dangling capture.
    const std::string base = "host" + std::to_string(id_) + ".flow" +
                             std::to_string(flow.src_port) + "-" +
                             std::to_string(flow.dst_port);
    // if_absent: a reconnect of the same flow key is the same logical
    // gauge (it samples through find_sender), not a new track.
    const bool fresh =
        cfg_.sampler->add_series_if_absent(base + ".cwnd_bytes", [this, flow] {
          tcp::TcpSender* s = find_sender(flow);
          return s != nullptr ? s->cwnd_bytes() : 0.0;
        });
    cfg_.sampler->add_series_if_absent(base + ".srtt_us", [this, flow] {
      tcp::TcpSender* s = find_sender(flow);
      return s != nullptr ? static_cast<double>(s->srtt()) / 1e3 : 0.0;
    });
    if (fresh) ++flow_series_made_;
  }
  return *it->second;
}

tcp::TcpReceiver& Host::create_receiver(const net::FlowKey& data_flow) {
  auto receiver = std::make_unique<tcp::TcpReceiver>(
      sim_, data_flow,
      [this](net::Packet&& ack) { egress_segment(std::move(ack)); });
  if (cfg_.span_tracer != nullptr) {
    receiver->set_span_tracer(cfg_.span_tracer);
  }
  auto [it, inserted] = receivers_.insert_or_assign(data_flow,
                                                    std::move(receiver));
  (void)inserted;
  return *it->second;
}

tcp::TcpSender* Host::find_sender(const net::FlowKey& flow) {
  auto it = senders_.find(flow);
  return it == senders_.end() ? nullptr : it->second.get();
}

tcp::TcpReceiver* Host::find_receiver(const net::FlowKey& flow) {
  auto it = receivers_.find(flow);
  return it == receivers_.end() ? nullptr : it->second.get();
}

void Host::egress_segment(net::Packet&& seg) {
  if (cfg_.tx_jitter <= 0) {
    egress_now(std::move(seg));
    return;
  }
  // Order-preserving jitter: each segment leaves no earlier than its
  // predecessor, plus a uniform[0, tx_jitter) scheduling delay — and, very
  // rarely, a scheduler-preemption stall.
  const sim::Time now = sim_.now();
  sim::Time extra = static_cast<sim::Time>(
      jitter_rng_.below(static_cast<std::uint64_t>(cfg_.tx_jitter)));
  if (cfg_.preempt_probability > 0 &&
      jitter_rng_.uniform() < cfg_.preempt_probability) {
    extra += cfg_.preempt_min +
             static_cast<sim::Time>(jitter_rng_.below(static_cast<std::uint64_t>(
                 cfg_.preempt_max - cfg_.preempt_min)));
  }
  const sim::Time depart = std::max(now, egress_free_at_) + extra;
  egress_free_at_ = depart;
  if (depart <= now) {
    egress_now(std::move(seg));
  } else {
    // Park the segment in a pooled slot so the event capture stays inline
    // (16 bytes) instead of hauling the whole Packet into the event.
    net::Packet* slot = jitter_pool_.acquire(std::move(seg));
    sim_.schedule_at(depart, [this, slot] {
      net::Packet seg = std::move(*slot);
      jitter_pool_.release(slot);
      egress_now(std::move(seg));
    });
  }
}

void Host::egress_now(net::Packet&& seg) {
  if (seg.dst_mac == net::kInvalidMac) {
    seg.dst_mac = net::real_mac(seg.dst_host);
  }
  const bool per_packet = lb_ != nullptr && lb_->per_packet();
  if (lb_ != nullptr && !per_packet) lb_->on_segment(seg);
  tso_scratch_.clear();
  offload::tso_split(seg, tso_scratch_);
  for (net::Packet& p : tso_scratch_) {
    if (per_packet) lb_->on_segment(p);
    uplink_.enqueue(std::move(p));
  }
  tso_scratch_.clear();
}

void Host::receive(net::Packet p, net::PortId) {
  // Ring overflow: while the receive core is badly backlogged the driver
  // cannot drain the ring and arriving frames are lost.
  if (cpu_.backlog() > cfg_.ring_backlog_limit) {
    ++ring_drops_;
    for (net::WireTap* o : observers_) {
      o->on_drop(net::kHostNodeBit | id_, net::kInvalidPort, p,
                 net::DropCause::kHostRing);
    }
    return;
  }
  for (net::WireTap* o : observers_) o->on_host_rx(id_, p);
  ring_.push_back(std::move(p));
  if (ring_.size() >= cfg_.coalesce_packets) {
    nic_interrupt();
  } else if (!interrupt_scheduled_) {
    interrupt_scheduled_ = true;
    sim_.schedule(cfg_.coalesce_delay, [this] {
      if (interrupt_scheduled_) nic_interrupt();
    });
  }
}

void Host::nic_interrupt() {
  interrupt_scheduled_ = false;
  if (ring_.empty()) return;
  std::vector<net::Packet> batch = std::move(ring_);
  ring_.clear();
  const sim::Time now = sim_.now();

  sim::Time cost = 0;
  const bool presto = cfg_.gro == GroKind::kPresto;
  std::vector<net::Packet> acks = take_spare(ack_spares_);
  for (net::Packet& p : batch) {
    cost += cfg_.cpu_costs.per_packet;
    if (presto) cost += cfg_.cpu_costs.presto_extra_per_packet;
    if (p.is_ack) {
      cost += cfg_.per_ack_cost;
      acks.push_back(std::move(p));
    } else if (gro_ != nullptr) {
      gro_->on_packet(p, now);
    } else {
      pending_segments_.push_back(offload::segment_from(p, now));
    }
  }
  if (gro_ != nullptr) gro_->flush(now);
  dispatch(std::move(pending_segments_), std::move(acks), cost);
  pending_segments_ = take_spare(seg_spares_);
  // The drained batch still owns the ring's grown capacity — hand it back so
  // steady-state interrupts never reallocate the ring.
  batch.clear();
  ring_ = std::move(batch);
  schedule_held_flush();
}

void Host::held_flush() {
  held_flush_pending_ = false;
  if (gro_ == nullptr || !gro_->has_held_segments()) return;
  gro_->flush(sim_.now());
  if (!pending_segments_.empty()) {
    dispatch(std::move(pending_segments_), take_spare(ack_spares_), 0);
    pending_segments_ = take_spare(seg_spares_);
  }
  schedule_held_flush();
}

void Host::schedule_held_flush() {
  if (gro_ == nullptr || !gro_->has_held_segments() || held_flush_pending_) {
    return;
  }
  held_flush_pending_ = true;
  sim_.schedule(cfg_.held_flush_interval, [this] { held_flush(); });
}

void Host::dispatch(std::vector<offload::Segment> segments,
                    std::vector<net::Packet> acks, sim::Time batch_cost) {
  sim::Time cost = batch_cost;
  for (const offload::Segment& s : segments) {
    cost += cfg_.cpu_costs.per_segment +
            static_cast<sim::Time>(cfg_.cpu_costs.per_byte_ns * s.bytes());
    // Out-of-order segments cost extra in the TCP layer (SACK generation,
    // ooo-queue insertion).
    if (auto it = receivers_.find(s.flow);
        it != receivers_.end() && s.start_seq > it->second->delivered()) {
      cost += cfg_.cpu_costs.per_ooo_segment;
    }
  }
  if (cost <= 0 && segments.empty() && acks.empty()) {
    recycle(seg_spares_, std::move(segments));
    recycle(ack_spares_, std::move(acks));
    return;
  }
  cpu_.submit(cost, [this, segments = std::move(segments),
                     acks = std::move(acks)]() mutable {
    for (const net::Packet& a : acks) deliver_ack(a);
    for (const offload::Segment& s : segments) deliver_segment(s);
    // Completed batches return their capacity for the next interrupt.
    recycle(seg_spares_, std::move(segments));
    recycle(ack_spares_, std::move(acks));
  });
}

void Host::deliver_segment(const offload::Segment& s) {
  for (const SegmentTap& tap : taps_) tap(s);
  if (auto it = receivers_.find(s.flow); it != receivers_.end()) {
    it->second->on_segment(s);
  } else {
    ++orphan_segments_;
  }
}

void Host::deliver_ack(const net::Packet& p) {
  if (auto it = senders_.find(p.flow.reversed()); it != senders_.end()) {
    it->second->on_ack_packet(p);
  } else {
    ++orphan_segments_;
  }
}

void Host::digest_state(sim::Digest& d) const {
  d.mix(id_);
  // TCP endpoints live in unordered_maps: fold each one's digest
  // commutatively so map traversal order cannot perturb the result.
  for (const auto& [flow, sender] : senders_) {
    sim::Digest sub;
    sender->digest_state(sub);
    d.mix_unordered(sub.value());
  }
  for (const auto& [flow, receiver] : receivers_) {
    sim::Digest sub;
    receiver->digest_state(sub);
    d.mix_unordered(sub.value());
  }
  if (gro_ != nullptr) gro_->digest_state(d);
  if (lb_ != nullptr) lb_->digest_state(d);
  d.mix(ring_.size());
  d.mix(ring_drops_);
  d.mix(orphan_segments_);
  const net::PortCounters& up = uplink_.counters();
  d.mix(up.tx_packets);
  d.mix(up.tx_bytes);
  d.mix(up.enqueued_packets);
  d.mix(up.dropped_packets);
  d.mix(up.dropped_bytes);
}

}  // namespace presto::host
