// FabricPlane: owns the telemetry plane of one experiment replica
// (DESIGN.md §15).
//
// The plane creates one SwitchMonitor per switch, wires its PortMonitors
// into the TxPort hot paths, and — when `flush_period > 0` — schedules
// periodic flushes that carry each monitor's cumulative TelemetryReport to
// the FabricCollector through the control plane. Delivery consults the
// controller's active ControlFault: the report inherits the push's extra
// delay, is dropped with the push-drop probability, and is duplicated with
// the duplicate probability, all rolled on a plane-owned RNG stream so
// enabling telemetry never perturbs the controller's own fault rolls.
//
// With `flush_period == 0` the plane schedules nothing (the simulation can
// still quiesce, which the scenario/soak tiers rely on); health_json() then
// scrapes the monitors synchronously via collect_now().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/switch.h"
#include "sim/digest.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "telemetry/fabric/collector.h"
#include "telemetry/fabric/config.h"
#include "telemetry/fabric/monitor.h"

namespace presto::controller {
class Controller;
}

namespace presto::telemetry::fabric {

class FabricPlane {
 public:
  FabricPlane(sim::Simulation& sim, const FabricConfig& cfg,
              std::uint64_t seed);

  FabricPlane(const FabricPlane&) = delete;
  FabricPlane& operator=(const FabricPlane&) = delete;

  /// Creates a monitor for `sw` (one PortMonitor per existing port, in port
  /// order) and hooks it into every TxPort. Call after all ports are wired.
  void attach_switch(net::Switch& sw);

  /// Reports travel through this controller's (faultable) control plane;
  /// null means an ideal control plane.
  void set_controller(const controller::Controller* ctl) { ctl_ = ctl; }

  /// Starts the periodic flush schedule (no-op when flush_period == 0).
  void start();

  /// One flush round through the (faultable) control plane — every monitor
  /// snapshots and the frames ride the ControlFault model — without
  /// touching the periodic schedule. The controller's ControlLoop drives
  /// collection this way so scenario runs can keep flush_period == 0 (and
  /// with it, drain detection).
  void flush_now();

  /// Synchronously snapshots every monitor into the collector (no control
  /// plane, no faults, no scheduled events).
  void collect_now();

  /// Renders the fabric_health document at sim.now(). When the collection
  /// protocol is off this scrapes the monitors first, so the document is
  /// always current.
  std::string health_json();

  FabricCollector& collector() { return collector_; }
  const FabricCollector& collector() const { return collector_; }
  SwitchMonitor* monitor(std::uint32_t switch_id);
  const FabricConfig& config() const { return cfg_; }

  /// Live spray-imbalance index over the monitors (not the collector), for
  /// time-series sampling without waiting on the collection protocol.
  double live_imbalance_index() const;
  /// Live per-label transmitted bytes across all monitors.
  std::uint64_t live_label_tx_bytes(std::uint32_t bucket) const;

  /// Delivery-side accounting (frames eaten by the faulted control plane).
  std::uint64_t reports_sent() const { return reports_sent_; }
  std::uint64_t reports_dropped() const { return reports_dropped_; }
  std::uint64_t reports_duplicated() const { return reports_duplicated_; }

  /// Folds monitor + collector state into a soak digest (side-effect free).
  void digest_state(sim::Digest& d) const;

 private:
  void tick();
  /// Index of a free report slot (the pool grows on first use only).
  std::uint32_t acquire_slot();
  /// Sends the report in `slot` through the (faultable) control plane.
  void deliver(std::uint32_t slot);
  void schedule_delivery(std::uint32_t slot, sim::Time delay);

  sim::Simulation& sim_;
  FabricConfig cfg_;
  const controller::Controller* ctl_ = nullptr;
  FabricCollector collector_;
  /// Ordered by switch id: flush order (and so report timestamps/seq
  /// interleaving) is deterministic.
  std::map<std::uint32_t, std::unique_ptr<SwitchMonitor>> monitors_;
  sim::Rng rng_;
  /// Recycled report storage. A flush snapshots into a free slot, the
  /// delivery event captures only the slot index (keeping the closure
  /// inside the scheduler's inline-capture budget), and the collector
  /// swaps its previous report back into the slot, which is then freed.
  std::vector<TelemetryReport> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t reports_dropped_ = 0;
  std::uint64_t reports_duplicated_ = 0;
  bool started_ = false;
};

}  // namespace presto::telemetry::fabric
