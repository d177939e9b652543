// Per-layer probe bundles and the telemetry Session that owns them.
//
// A probe bundle is a struct of instrument pointers, resolved from the
// Registry once when a Session is created. Components store a
// `const XxxProbes*` (null => telemetry disabled) and guard updates with a
// single null check, so the disabled path costs one predictable branch.
// The network layer is the exception: it knows no telemetry types. Its
// counts are the ports' own net::PortCounters, read when a snapshot is
// taken, and a NetObserver attached like any other datapath observer sees
// only what needs the packet itself.
//
// The Session is owned by the Experiment: one per simulation replica, never
// shared across sweep threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/tap.h"
#include "net/types.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "telemetry/fabric/config.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeseries.h"

namespace presto::net {
class Switch;
class TxPort;
}  // namespace presto::net

namespace presto::telemetry {

/// Experiment-level telemetry switches (part of ExperimentConfig).
struct TelemetryConfig {
  /// Master switch: collect counters/gauges/histograms.
  bool metrics = false;

  // -- flight recorder (DESIGN.md §10) --
  /// Periodically sample registered gauges into bounded time-series rings.
  /// Ring capacity is TimeSeriesConfig's default.
  bool timeseries = false;
  sim::Time sample_interval = 100 * sim::kMicrosecond;
  /// Open a causal span for every Nth dispatched flowcell (0 = off). The
  /// span and event caps are SpanTracerConfig's defaults.
  std::uint32_t span_sample_every = 0;

  /// In-fabric telemetry plane (switch-side monitors + collection protocol
  /// + anomaly layer; DESIGN.md §15). Independent of `metrics`.
  fabric::FabricConfig fabric;

  /// True when any flight-recorder component is on (drives Session creation
  /// and trace-file export even with `metrics` off).
  bool flight_recorder() const { return timeseries || span_sample_every > 0; }
};

/// Per-spanning-tree in-flight byte table, fed by the NetObserver
/// (enqueue adds, transmit subtracts) and read by the sampler as the
/// "label in-flight" gauge family. Plain array — ports and sampler live on
/// the same replica thread.
struct LabelFlight {
  static constexpr std::size_t kMaxTrees = net::kTreeBuckets;
  std::array<std::int64_t, kMaxTrees> bytes{};

  void add(net::MacAddr dst, std::int64_t delta) {
    const std::uint32_t bucket = net::label_bucket(dst);
    if (bucket < kMaxTrees) bytes[bucket] += delta;
  }
};

/// The telemetry session's datapath observer, attached to every switch and
/// its ports (and, in flight-recorder runs, to host uplinks): samples queue
/// depth after each enqueue, annotates sampled spans, and keeps the
/// LabelFlight table when the flight recorder samples it. It counts
/// nothing: the Session reads enqueues and drops from PortCounters.
class NetObserver final : public net::WireTap {
 public:
  NetObserver(const sim::Simulation& sim, Registry& registry,
              SpanTracer* spans, LabelFlight* flight);

  void on_enqueue(std::uint32_t node, net::PortId port, const net::Packet& p,
                  std::uint64_t depth) override;
  void on_tx(std::uint32_t node, net::PortId port, const net::Packet& p,
             std::uint64_t depth) override;
  void on_drop(std::uint32_t node, net::PortId port, const net::Packet& p,
               net::DropCause cause) override;

 private:
  const sim::Simulation& sim_;
  Histogram* queue_depth_bytes_;  ///< sampled after each enqueue
  SpanTracer* spans_;
  LabelFlight* flight_;
};

/// core::FlowcellEngine — cell creation, label spread, and path suspicion.
struct FlowcellProbes {
  Counter* cells = nullptr;
  Counter* segments = nullptr;
  Counter* suspicion_signals = nullptr;  ///< loss/timeout signals received
  Counter* suspicion_skips = nullptr;    ///< dispatches steered off a label
  Counter* suspicion_clears = nullptr;   ///< spurious-recovery exonerations
  Histogram* label_index = nullptr;     ///< chosen slot per dispatch
  Histogram* cells_per_flow = nullptr;  ///< published at snapshot time
  SpanTracer* spans = nullptr;
};

/// offload GRO engines — merges and flush decisions by cause.
struct GroProbes {
  Counter* merges = nullptr;
  Counter* pushed = nullptr;
  Histogram* segment_bytes = nullptr;  ///< pushed segment sizes
  Counter* flush_same_flowcell = nullptr;
  Counter* flush_in_order = nullptr;
  Counter* flush_overlap = nullptr;
  Counter* flush_timeout = nullptr;  ///< boundary-hold timeout fires
  Counter* flush_stale = nullptr;
  Counter* holds = nullptr;
  SpanTracer* spans = nullptr;
};

/// tcp::TcpSender — loss recovery activity.
struct TcpProbes {
  Counter* fast_retransmits = nullptr;
  Counter* rtos = nullptr;
  Counter* retransmitted_bytes = nullptr;
  Counter* dup_acks = nullptr;
  Counter* spurious_recoveries = nullptr;
  SpanTracer* spans = nullptr;
};

/// controller::Controller — failure reaction and schedule churn.
struct ControllerProbes {
  Counter* link_failures = nullptr;
  Counter* link_restores = nullptr;
  Counter* ingress_reroutes = nullptr;
  Counter* reweight_pushes = nullptr;   ///< push_weighted_schedules calls
  Counter* schedules_set = nullptr;     ///< schedules (re)installed
  Counter* noop_transitions = nullptr;  ///< redundant fail/restore ignored
  Counter* pushes_dropped = nullptr;    ///< control-plane fault ate a push
  Counter* pushes_delayed = nullptr;    ///< control-plane fault delayed one
};

/// fault::FaultInjector — injected fault activity by class.
struct FaultProbes {
  Counter* events = nullptr;          ///< every fault event fired
  Counter* link_events = nullptr;     ///< link down/up/flap transitions
  Counter* degrade_events = nullptr;  ///< loss-model installs/heals
  Counter* switch_events = nullptr;   ///< switch fail-stop/restore
  Counter* control_events = nullptr;  ///< control-plane fault arms/clears
};

/// Owns the Registry for one experiment replica and the pre-resolved probe
/// bundles handed to components. Creating the session eagerly registers
/// every instrument name, so emitted snapshots always carry the full
/// cross-layer key set even when a counter stayed at zero.
class Session {
 public:
  /// `sim` is the replica's clock (the NetObserver timestamps with it).
  Session(const TelemetryConfig& cfg, const sim::Simulation& sim);

  Registry& registry() { return registry_; }
  /// Null when the time-series flight recorder is disabled.
  TimeSeriesSampler* sampler() { return sampler_.get(); }
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }
  /// Null when span tracing is disabled.
  SpanTracer* spans() { return spans_.get(); }
  const SpanTracer* spans() const { return spans_.get(); }
  LabelFlight& label_flight() { return label_flight_; }

  /// Attaches the NetObserver to `sw` and its ports, and counts their
  /// PortCounters and the switch's no-route drops in the snapshot's `net.*`
  /// counters.
  void observe(net::Switch& sw);
  /// Attaches the NetObserver to one host uplink and counts it likewise.
  void observe(net::TxPort& uplink);

  const FlowcellProbes* flowcell_probes() const { return &flowcell_; }
  const GroProbes* gro_probes() const { return &gro_; }
  const TcpProbes* tcp_probes() const { return &tcp_; }
  const ControllerProbes* controller_probes() const { return &controller_; }
  const FaultProbes* fault_probes() const { return &fault_; }

  /// Registry snapshot plus the `net.*` counters, summed from the
  /// observed ports' PortCounters at this instant.
  Snapshot snapshot() const;

 private:
  Registry registry_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  std::unique_ptr<SpanTracer> spans_;
  LabelFlight label_flight_;
  std::unique_ptr<NetObserver> net_observer_;
  std::vector<const net::Switch*> switches_;
  std::vector<const net::TxPort*> uplinks_;
  FlowcellProbes flowcell_;
  GroProbes gro_;
  TcpProbes tcp_;
  ControllerProbes controller_;
  FaultProbes fault_;
};

}  // namespace presto::telemetry
