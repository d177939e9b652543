// TelemetryReport: the bounded frame a SwitchMonitor flushes to the
// FabricCollector (DESIGN.md §15.2).
//
// All counters are *cumulative* since monitor attach, never per-window:
// a duplicate or reordered delivery carries no new information and the
// collector can dedupe purely on `seq` (idempotent merge). Gauges
// (hwm_decayed, util_ewma) are the value at `emitted_at`. The per-label
// depth sketches are cumulative too; the collector merges only the latest
// sketch per switch, so cross-switch merges stay lossless (same alpha).
//
// Reports are built in place: the plane hands SwitchMonitor::snapshot() a
// recycled slot to overwrite, and the collector swaps an accepted report
// with its previous one, handing that storage back (DESIGN.md §15.2). The
// depth sketches are an immutable shared snapshot: a monitor publishes a
// new copy only when a depth sample landed since its previous report.
// `labels_seq` lets a consumer that already holds a report's label rows
// and sketches skip them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/tap.h"
#include "net/types.h"
#include "sim/time.h"
#include "stats/ddsketch.h"

namespace presto::telemetry::fabric {

/// Spanning-tree label buckets (net::label_bucket): trees 0..15 plus one
/// catch-all for non-shadow-MAC traffic.
inline constexpr std::uint32_t kNonLabelBucket = net::kTreeBuckets;
inline constexpr std::size_t kLabelBuckets = kNonLabelBucket + 1;

/// Drop causes tracked per port, indexed by net::counted_cause.
inline constexpr std::size_t kDropCauses = net::kCountedDropCauses;

/// One output port's cumulative state.
struct PortReport {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t enqueued_packets = 0;
  std::array<std::uint64_t, kDropCauses> drops{};  ///< by net::counted_cause

  /// Raw high-watermark over the whole run and the per-flush decayed one.
  std::uint64_t queue_hwm_bytes = 0;
  double queue_hwm_decayed = 0.0;
  /// Per-flush-window utilization EWMA in [0, 1].
  double util_ewma = 0.0;

  std::uint64_t microburst_episodes = 0;
  sim::Time microburst_max_duration = 0;
  std::uint64_t microburst_peak_bytes = 0;
};

/// Cumulative per-label transmit/drop totals for one switch.
struct LabelTotals {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drop_packets = 0;
};

struct TelemetryReport {
  std::uint32_t switch_id = 0;
  /// Monotone per-switch flush sequence number (1-based). Gaps at the
  /// collector mean lost reports; repeats mean duplicates.
  std::uint64_t seq = 0;
  sim::Time emitted_at = 0;
  /// Seq of the monitor's last fold of its counters, at or before `seq`:
  /// every report of this switch from `labels_seq` to `seq` carries the
  /// same `labels` and `label_depth`. 0 = unknown.
  std::uint64_t labels_seq = 0;
  std::vector<PortReport> ports;
  std::array<LabelTotals, kLabelBuckets> labels{};
  /// Queue-depth sketch per label bucket (sampled, cumulative). Shared
  /// and never modified once published, so consecutive reports without a
  /// new depth sample point at the same vector.
  std::shared_ptr<const std::vector<stats::DDSketch>> label_depth;
};

}  // namespace presto::telemetry::fabric
