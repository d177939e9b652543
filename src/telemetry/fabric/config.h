// Configuration for the in-fabric telemetry plane (DESIGN.md §15).
//
// The plane has three layers, each gated here:
//   * switch-side PortMonitor/SwitchMonitor hooks on the TxPort hot paths
//     (enabled by `monitors`; O(1) per event, zero steady-state allocation);
//   * a collection protocol that flushes cumulative TelemetryReport frames
//     to the FabricCollector every `flush_period` through the control plane
//     (0 disables the protocol — monitors can still be scraped directly,
//     which is what the deterministic scenario/soak tiers do);
//   * anomaly detection thresholds used by FabricCollector::health().
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace presto::telemetry::fabric {

struct FabricConfig {
  /// Master switch: attach monitors to every switch port.
  bool monitors = false;

  // -- collection protocol --
  /// Period between monitor flushes to the collector (0 = no scheduled
  /// flushes; reports only via FabricPlane::collect_now()).
  sim::Time flush_period = 0;
  /// Baseline control-plane transit delay for a report frame. Control-plane
  /// faults (ctl_fault@) add their extra_push_delay on top and may drop or
  /// duplicate the frame.
  sim::Time report_delay = 10 * sim::kMicrosecond;

  // -- monitor thresholds --
  /// Queue occupancy (bytes) above which a microburst episode is open.
  std::uint64_t microburst_threshold_bytes = 150 * 1024;
  /// Sample queue depth into the per-label DDSketch on every 2^shift-th
  /// enqueue (per port). Keeps the sketch update (one std::log) off most
  /// hot-path events while still collecting tens of thousands of depth
  /// samples per bench run.
  std::uint32_t sketch_sample_shift = 5;
  /// EWMA weight for the per-port utilization estimate (per flush window).
  double util_alpha = 0.3;
  /// Per-flush decay applied to the queue high-watermark.
  double hwm_decay = 0.5;

  // -- anomaly thresholds (the fixed ones are constants in collector.cc) --
  /// Utilization EWMA at/above which a port counts as "hot".
  double hotspot_util = 0.90;
  /// Consecutive hot reports before a port is flagged a persistent hotspot.
  std::uint32_t hotspot_consecutive = 3;
};

}  // namespace presto::telemetry::fabric
