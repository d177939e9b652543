// Switch-side monitors: the data-plane half of the telemetry plane
// (DESIGN.md §15.1).
//
// A SwitchMonitor owns one PortMonitor per output port. It is the fabric's
// net::WireTap observer (kMonitor slot) on its switch and every port, and
// hands each port event to that port's PortMonitor through the three
// inline hooks below, so the disabled cost is one predictable branch and
// the enabled cost is a virtual call plus a handful of integer ops
// (bounded-array counter bumps, two compares for the high-watermark and
// microburst state, and — on every 2^sketch_sample_shift-th enqueue only —
// one DDSketch insert). No allocation happens in steady state: all per-port
// state is fixed-size, and the label sketches stop growing once their dense
// bucket ranges cover the observed queue depths.
//
// snapshot() closes a flush window: it updates the utilization EWMA and the
// decayed high-watermark and writes a cumulative TelemetryReport into the
// caller's storage (see report.h for the idempotence and ownership
// contract). Every hook sets its port's dirty bit, and a no-route drop
// sets the switch's, so a switch with no event since its previous report
// reuses that report's label sums and sketch snapshot and runs only each
// port's gauge updates; a port whose gauges have reached their fixed
// point skips those too (DESIGN.md §15.1). digest_state() folds the raw
// monitor state without side effects, for the soak-tier digests.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/tap.h"
#include "net/types.h"
#include "sim/digest.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "stats/ddsketch.h"
#include "telemetry/fabric/config.h"
#include "telemetry/fabric/report.h"

namespace presto::telemetry::fabric {

class SwitchMonitor;

/// Per-port monitor state. Hot-path hooks are inline; the owning
/// SwitchMonitor drives window close (snapshot) and digesting.
class PortMonitor {
 public:
  /// Called by the SwitchMonitor after a successful enqueue. `depth_after`
  /// is the queue occupancy in bytes including this frame.
  void on_enqueue(std::uint64_t depth_after, std::uint32_t bucket,
                  sim::Time now) {
    dirty_ = true;
    depth_ = depth_after;
    if (depth_after > hwm_live_) hwm_live_ = depth_after;
    if (in_burst_) {
      if (depth_after > burst_peak_) burst_peak_ = depth_after;
    } else if (depth_after >= burst_threshold_) {
      in_burst_ = true;
      burst_start_ = now;
      burst_peak_ = depth_after;
    }
    // The enqueue counter doubles as the sketch sample tick.
    if ((++enqueued_packets_ & sample_mask_) == 0 && sketches_ != nullptr) {
      (*sketches_)[bucket].add(static_cast<double>(depth_after));
    }
  }

  /// Called by the SwitchMonitor when a frame finishes serialization
  /// (dequeued from the queue onto the wire). `depth_after` excludes this
  /// frame. Only the per-label counters are bumped here; the port-level tx
  /// totals are derived from them at window close, off the hot path.
  void on_tx(std::uint32_t bytes, std::uint64_t depth_after,
             std::uint32_t bucket, sim::Time now) {
    dirty_ = true;
    ++labels_[bucket].tx_packets;
    labels_[bucket].tx_bytes += bytes;
    depth_ = depth_after;
    if (in_burst_ && depth_after < burst_threshold_) {
      in_burst_ = false;
      ++r_.microburst_episodes;
      const sim::Time dur = now - burst_start_;
      if (dur > r_.microburst_max_duration) r_.microburst_max_duration = dur;
      if (burst_peak_ > r_.microburst_peak_bytes) {
        r_.microburst_peak_bytes = burst_peak_;
      }
    }
  }

  /// Called by the SwitchMonitor for every port drop (enqueue reject,
  /// link-down at serialization, loss-model/corruption eat).
  void on_drop(std::uint32_t bucket, net::DropCause cause) {
    dirty_ = true;
    const auto c = static_cast<std::size_t>(net::counted_cause(cause));
    if (c < kDropCauses) ++r_.drops[c];
    ++labels_[bucket].drop_packets;
  }

  const PortReport& raw() const { return r_; }
  const std::array<LabelTotals, kLabelBuckets>& labels() const {
    return labels_;
  }
  std::uint64_t queue_hwm_bytes() const { return hwm_live_; }
  double util_ewma() const { return r_.util_ewma; }

 private:
  friend class SwitchMonitor;

  void configure(const FabricConfig* cfg, double rate_bps,
                 std::vector<stats::DDSketch>* sketches) {
    cfg_ = cfg;
    rate_bps_ = rate_bps;
    sketches_ = sketches;
    sample_mask_ = (1u << cfg->sketch_sample_shift) - 1;
    burst_threshold_ = cfg->microburst_threshold_bytes;
  }

  /// Port tx totals, derived from the per-label counters (the hot path
  /// maintains only those). Used by digest_state; fold_counters derives
  /// them in its own single walk of the label rows.
  std::uint64_t total_tx_packets() const {
    std::uint64_t n = 0;
    for (const LabelTotals& l : labels_) n += l.tx_packets;
    return n;
  }
  std::uint64_t total_tx_bytes() const {
    std::uint64_t n = 0;
    for (const LabelTotals& l : labels_) n += l.tx_bytes;
    return n;
  }

  /// Folds the hot-path counters into the cumulative report state and
  /// adds this port's label rows into `labels`.
  void fold_counters(std::array<LabelTotals, kLabelBuckets>& labels);

  /// Closes a flush window: folds the window's transmitted bytes into the
  /// utilization EWMA, decays the high-watermark and writes the cumulative
  /// state into `out`. The caller skips it for a settled port with no
  /// event: from the fixed point every update would recompute the values
  /// already held.
  void close_window(sim::Time now, sim::Time window_start, PortReport& out);

  // Hot cluster first: every field the inline hooks read or write sits in
  // the first two cache lines, ahead of the 400+-byte label array and the
  // report struct — the hooks run on every packet event.
  std::uint64_t depth_ = 0;      ///< last observed queue occupancy
  std::uint64_t hwm_live_ = 0;   ///< raw max since attach
  /// Folded into r_ at window close; low bits double as the sketch
  /// sample tick.
  std::uint64_t enqueued_packets_ = 0;
  std::uint32_t sample_mask_ = 31;
  bool in_burst_ = false;
  bool dirty_ = false;  ///< a hook fired since the previous window close
  std::uint64_t burst_threshold_ = 150 * 1024;  ///< cached off cfg_
  sim::Time burst_start_ = 0;
  std::uint64_t burst_peak_ = 0;
  std::vector<stats::DDSketch>* sketches_ = nullptr;

  std::array<LabelTotals, kLabelBuckets> labels_{};

  // Cold: window-close and report-only state.
  const FabricConfig* cfg_ = nullptr;
  double rate_bps_ = 10e9;
  PortReport r_;
  double hwm_window_ = 0.0;      ///< decayed watermark (updated per window)
  std::uint64_t window_tx_base_ = 0;  ///< tx_bytes at last window close
  /// The gauges are at the fixed point of an idle window: the previous
  /// close was idle, had dt > 0 and left every gauge bit-identical.
  bool settled_ = false;
};

/// All monitors of one switch plus the shared per-label depth sketches.
class SwitchMonitor final : public net::WireTap {
 public:
  SwitchMonitor(const sim::Simulation& sim, std::uint32_t switch_id,
                const FabricConfig& cfg)
      : sim_(sim), id_(switch_id), cfg_(&cfg), sketches_(kLabelBuckets) {}

  SwitchMonitor(const SwitchMonitor&) = delete;
  SwitchMonitor& operator=(const SwitchMonitor&) = delete;

  /// Registers the next port (ports attach in port-id order).
  void add_port(double rate_bps) {
    ports_.emplace_back();
    ports_.back().configure(cfg_, rate_bps, &sketches_);
  }

  PortMonitor* port(std::size_t i) { return &ports_.at(i); }
  const PortMonitor* port(std::size_t i) const { return &ports_.at(i); }
  std::size_t port_count() const { return ports_.size(); }
  std::uint32_t switch_id() const { return id_; }

  // net::WireTap: port events go to that port's monitor; a no-route drop
  // is the switch's own (not attributable to an output port).
  void on_enqueue(std::uint32_t, net::PortId port, const net::Packet& p,
                  std::uint64_t depth) override {
    ports_[static_cast<std::size_t>(port)].on_enqueue(
        depth, net::label_bucket(p.dst_mac), sim_.now());
  }
  void on_tx(std::uint32_t, net::PortId port, const net::Packet& p,
             std::uint64_t depth) override {
    ports_[static_cast<std::size_t>(port)].on_tx(
        p.buffer_bytes(), depth, net::label_bucket(p.dst_mac), sim_.now());
  }
  void on_drop(std::uint32_t, net::PortId port, const net::Packet& p,
               net::DropCause cause) override {
    const std::uint32_t bucket = net::label_bucket(p.dst_mac);
    if (cause == net::DropCause::kNoRoute) {
      dirty_ = true;
      ++no_route_drops_;
      ++label_no_route_[bucket];
    } else {
      ports_[static_cast<std::size_t>(port)].on_drop(bucket, cause);
    }
  }

  std::uint64_t no_route_drops() const { return no_route_drops_; }

  /// Closes the current flush window on every port and writes the next
  /// cumulative report (seq is 1-based and monotone) over `out`, reusing
  /// its storage. The depth sketches are copied only if a sample landed
  /// since the previous snapshot; otherwise `out` shares that snapshot's.
  /// When no hook fired since the previous snapshot, the label sums and
  /// the sketch snapshot are that snapshot's and only the gauges move.
  void snapshot(sim::Time now, TelemetryReport& out);

  /// Side-effect-free fold of the full monitor state (soak digests).
  void digest_state(sim::Digest& d) const;

  const std::vector<stats::DDSketch>& label_depth() const { return sketches_; }

 private:
  const sim::Simulation& sim_;
  std::uint32_t id_;
  const FabricConfig* cfg_;
  std::vector<PortMonitor> ports_;
  std::vector<stats::DDSketch> sketches_;
  std::array<std::uint64_t, kLabelBuckets> label_no_route_{};
  std::uint64_t no_route_drops_ = 0;
  /// A no-route drop since the previous snapshot; the first snapshot
  /// always folds.
  bool dirty_ = true;
  /// Switch label sums as of the previous fold: the no-route rows plus
  /// every port's label rows.
  std::array<LabelTotals, kLabelBuckets> label_sums_{};
  std::uint64_t seq_ = 0;
  std::uint64_t labels_seq_ = 0;  ///< seq of the last fold
  sim::Time window_start_ = 0;
  /// Last published copy of sketches_ and the sample total it holds.
  std::shared_ptr<const std::vector<stats::DDSketch>> published_;
  std::uint64_t published_samples_ = 0;
};

}  // namespace presto::telemetry::fabric
