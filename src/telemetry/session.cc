#include "telemetry/probes.h"

#include "net/port.h"
#include "net/switch.h"

namespace presto::telemetry {

NetObserver::NetObserver(const sim::Simulation& sim, Registry& registry,
                         SpanTracer* spans, LabelFlight* flight)
    : sim_(sim),
      queue_depth_bytes_(&registry.histogram("net.port.queue_depth_bytes")),
      spans_(spans),
      flight_(flight) {}

void NetObserver::on_enqueue(std::uint32_t node, net::PortId port,
                             const net::Packet& p, std::uint64_t depth) {
  queue_depth_bytes_->add(static_cast<double>(depth));
  if (flight_ != nullptr) flight_->add(p.dst_mac, p.buffer_bytes());
  if (spans_ != nullptr && p.span_id != 0) {
    spans_->annotate(p.span_id, SpanEventKind::kEnqueue, sim_.now(), node,
                     port, p.seq, p.buffer_bytes());
  }
}

void NetObserver::on_tx(std::uint32_t node, net::PortId port,
                        const net::Packet& p, std::uint64_t depth) {
  (void)depth;
  if (flight_ != nullptr) {
    flight_->add(p.dst_mac, -static_cast<std::int64_t>(p.buffer_bytes()));
  }
  if (spans_ != nullptr && p.span_id != 0) {
    spans_->annotate(p.span_id, SpanEventKind::kDequeue, sim_.now(), node,
                     port, p.seq, p.buffer_bytes());
  }
}

void NetObserver::on_drop(std::uint32_t node, net::PortId port,
                          const net::Packet& p, net::DropCause cause) {
  (void)cause;
  if (spans_ != nullptr && p.span_id != 0) {
    spans_->annotate(p.span_id, SpanEventKind::kDrop, sim_.now(), node, port,
                     p.seq, p.buffer_bytes());
  }
}

Session::Session(const TelemetryConfig& cfg, const sim::Simulation& sim) {
  if (cfg.timeseries) {
    sampler_ = std::make_unique<TimeSeriesSampler>(
        TimeSeriesConfig{cfg.sample_interval});
  }
  if (cfg.span_sample_every > 0) {
    spans_ = std::make_unique<SpanTracer>(
        SpanTracerConfig{cfg.span_sample_every});
  }
  SpanTracer* sp = spans_.get();

  // Only the flight recorder's sampler reads the per-tree in-flight table.
  net_observer_ = std::make_unique<NetObserver>(
      sim, registry_, sp, sampler_ != nullptr ? &label_flight_ : nullptr);
  flowcell_.spans = sp;
  gro_.spans = sp;
  tcp_.spans = sp;

  flowcell_.cells = &registry_.counter("core.flowcell.cells");
  flowcell_.segments = &registry_.counter("core.flowcell.segments");
  flowcell_.suspicion_signals =
      &registry_.counter("core.flowcell.suspicion.signals");
  flowcell_.suspicion_skips =
      &registry_.counter("core.flowcell.suspicion.skips");
  flowcell_.suspicion_clears =
      &registry_.counter("core.flowcell.suspicion.clears");
  flowcell_.label_index = &registry_.histogram("core.flowcell.label_index");
  flowcell_.cells_per_flow =
      &registry_.histogram("core.flowcell.cells_per_flow");

  gro_.merges = &registry_.counter("offload.gro.merges");
  gro_.pushed = &registry_.counter("offload.gro.pushed");
  gro_.segment_bytes = &registry_.histogram("offload.gro.segment_bytes");
  gro_.flush_same_flowcell =
      &registry_.counter("offload.gro.flush.same_flowcell");
  gro_.flush_in_order = &registry_.counter("offload.gro.flush.in_order");
  gro_.flush_overlap = &registry_.counter("offload.gro.flush.overlap");
  gro_.flush_timeout = &registry_.counter("offload.gro.flush.timeout");
  gro_.flush_stale = &registry_.counter("offload.gro.flush.stale");
  gro_.holds = &registry_.counter("offload.gro.holds");

  tcp_.fast_retransmits = &registry_.counter("tcp.retx.fast");
  tcp_.rtos = &registry_.counter("tcp.retx.timeout");
  tcp_.retransmitted_bytes = &registry_.counter("tcp.retx.bytes");
  tcp_.dup_acks = &registry_.counter("tcp.dup_acks");
  tcp_.spurious_recoveries = &registry_.counter("tcp.spurious_recoveries");

  controller_.link_failures = &registry_.counter("controller.link_failures");
  controller_.link_restores = &registry_.counter("controller.link_restores");
  controller_.ingress_reroutes =
      &registry_.counter("controller.ingress_reroutes");
  controller_.reweight_pushes =
      &registry_.counter("controller.reweight_pushes");
  controller_.schedules_set = &registry_.counter("controller.schedules_set");
  controller_.noop_transitions =
      &registry_.counter("controller.noop_transitions");
  controller_.pushes_dropped = &registry_.counter("controller.pushes_dropped");
  controller_.pushes_delayed = &registry_.counter("controller.pushes_delayed");

  fault_.events = &registry_.counter("fault.events");
  fault_.link_events = &registry_.counter("fault.link_events");
  fault_.degrade_events = &registry_.counter("fault.degrade_events");
  fault_.switch_events = &registry_.counter("fault.switch_events");
  fault_.control_events = &registry_.counter("fault.control_events");
}

void Session::observe(net::Switch& sw) {
  sw.observe(net::ObserverRole::kTelemetry, net_observer_.get());
  switches_.push_back(&sw);
}

void Session::observe(net::TxPort& uplink) {
  uplink.set_observer(net::ObserverRole::kTelemetry, net_observer_.get());
  uplinks_.push_back(&uplink);
}

Snapshot Session::snapshot() const {
  Snapshot s = registry_.snapshot();
  net::PortCounters sum;
  for (const net::Switch* sw : switches_) {
    sum += sw->total_counters();
    sum.drops[static_cast<std::size_t>(net::DropCause::kNoRoute)] +=
        sw->no_route_drops();
  }
  for (const net::TxPort* uplink : uplinks_) sum += uplink->counters();
  // Indexed by net::counted_cause.
  static constexpr std::array<const char*, net::kCountedDropCauses>
      kDropNames = {"net.port.dropped.queue_full",
                    "net.port.dropped.link_down",
                    "net.switch.dropped.no_route",
                    "net.port.dropped.loss_model",
                    "net.port.dropped.corrupt"};
  s.counters["net.port.enqueued_packets"] = sum.enqueued_packets;
  for (std::size_t i = 0; i < kDropNames.size(); ++i) {
    s.counters[kDropNames[i]] = sum.drops[i];
  }
  return s;
}

}  // namespace presto::telemetry
