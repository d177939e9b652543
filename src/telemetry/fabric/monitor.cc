#include "telemetry/fabric/monitor.h"

#include <bit>

namespace presto::telemetry::fabric {

void PortMonitor::fold_counters(
    std::array<LabelTotals, kLabelBuckets>& labels) {
  // Fold the hot-path counters into the report (the hot path maintains
  // only the label rows and the compact hot cluster): one walk of the
  // label rows yields the port totals and the switch-level label sums.
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  for (std::size_t b = 0; b < kLabelBuckets; ++b) {
    const LabelTotals& l = labels_[b];
    tx_packets += l.tx_packets;
    tx_bytes += l.tx_bytes;
    labels[b].tx_packets += l.tx_packets;
    labels[b].tx_bytes += l.tx_bytes;
    labels[b].drop_packets += l.drop_packets;
  }
  r_.tx_packets = tx_packets;
  r_.tx_bytes = tx_bytes;
  r_.enqueued_packets = enqueued_packets_;
}

void PortMonitor::close_window(sim::Time now, sim::Time window_start,
                               PortReport& out) {
  const bool idle = !dirty_;
  dirty_ = false;
  const double util_before = r_.util_ewma;
  const double decayed_before = r_.queue_hwm_decayed;
  const std::uint64_t hwm_bytes_before = r_.queue_hwm_bytes;
  const double hwm_window_before = hwm_window_;
  const std::uint64_t hwm_live_before = hwm_live_;
  const std::uint64_t tx_base_before = window_tx_base_;

  const sim::Time dt = now - window_start;
  if (dt > 0 && rate_bps_ > 0) {
    const double sent_bits = 8.0 * static_cast<double>(r_.tx_bytes - window_tx_base_);
    const double capacity_bits = rate_bps_ * (static_cast<double>(dt) * 1e-9);
    double inst = capacity_bits > 0 ? sent_bits / capacity_bits : 0.0;
    if (inst > 1.0) inst = 1.0;  // rounding at tiny windows
    const double a = cfg_->util_alpha;
    r_.util_ewma = window_tx_base_ == 0 && r_.util_ewma == 0.0
                       ? inst
                       : a * inst + (1.0 - a) * r_.util_ewma;
    window_tx_base_ = r_.tx_bytes;
  }
  // Decayed watermark: the raw window max, pulled toward the current
  // occupancy by `hwm_decay` each flush so old bursts fade out.
  const double floor = static_cast<double>(depth_);
  double decayed = hwm_window_ * cfg_->hwm_decay;
  if (static_cast<double>(hwm_live_) > decayed) {
    decayed = static_cast<double>(hwm_live_);
  }
  if (decayed < floor) decayed = floor;
  hwm_window_ = decayed;
  r_.queue_hwm_decayed = decayed;
  if (hwm_live_ > r_.queue_hwm_bytes) r_.queue_hwm_bytes = hwm_live_;
  hwm_live_ = depth_;  // restart the per-window max at the current depth

  // Bit patterns, not values: the util EWMA decays through the denormals
  // and a settled gauge must be exactly what the next close would write.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const bool moved = bits(r_.util_ewma) != bits(util_before) ||
                     bits(r_.queue_hwm_decayed) != bits(decayed_before) ||
                     bits(hwm_window_) != bits(hwm_window_before) ||
                     r_.queue_hwm_bytes != hwm_bytes_before ||
                     hwm_live_ != hwm_live_before ||
                     window_tx_base_ != tx_base_before;
  // Only an idle window with dt > 0 shows a fixed point: a zero-length
  // window leaves the EWMA alone whether or not it has settled.
  settled_ = idle && dt > 0 && !moved;
  out = r_;
}

void SwitchMonitor::snapshot(sim::Time now, TelemetryReport& out) {
  out.switch_id = id_;
  out.seq = ++seq_;
  out.emitted_at = now;
  out.ports.resize(ports_.size());
  bool dirty = dirty_;
  for (const PortMonitor& p : ports_) dirty = dirty || p.dirty_;
  if (dirty) {
    for (std::size_t b = 0; b < kLabelBuckets; ++b) {
      label_sums_[b] = LabelTotals{0, 0, label_no_route_[b]};
    }
    for (PortMonitor& p : ports_) p.fold_counters(label_sums_);
    // Sketch counts only grow, so an unchanged total means no sample
    // landed and the published copy still equals sketches_.
    std::uint64_t samples = 0;
    for (const stats::DDSketch& s : sketches_) samples += s.count();
    if (published_ == nullptr || samples != published_samples_) {
      published_ =
          std::make_shared<const std::vector<stats::DDSketch>>(sketches_);
      published_samples_ = samples;
    }
    labels_seq_ = seq_;
    dirty_ = false;
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    PortMonitor& p = ports_[i];
    if (!p.dirty_ && p.settled_) {
      out.ports[i] = p.r_;  // another idle window from the fixed point
    } else {
      p.close_window(now, window_start_, out.ports[i]);
    }
  }
  out.labels_seq = labels_seq_;
  out.labels = label_sums_;
  out.label_depth = published_;  // collector dedupes on seq
  window_start_ = now;
}

void SwitchMonitor::digest_state(sim::Digest& d) const {
  d.mix(id_);
  d.mix(seq_);
  d.mix(no_route_drops_);
  d.mix_time(window_start_);
  for (const PortMonitor& p : ports_) {
    const PortReport& r = p.r_;
    d.mix(p.total_tx_packets());
    d.mix(p.total_tx_bytes());
    d.mix(p.enqueued_packets_);
    for (std::uint64_t v : r.drops) d.mix(v);
    d.mix(p.hwm_live_ > r.queue_hwm_bytes ? p.hwm_live_ : r.queue_hwm_bytes);
    d.mix(r.microburst_episodes);
    d.mix_time(r.microburst_max_duration);
    d.mix(r.microburst_peak_bytes);
    d.mix(p.depth_);
    d.mix(p.in_burst_ ? 1u : 0u);
    // The window gauges: what the next snapshot decays from.
    d.mix(p.hwm_live_);
    d.mix_double(p.hwm_window_);
    d.mix_double(r.queue_hwm_decayed);
    d.mix_double(r.util_ewma);
    d.mix(p.window_tx_base_);
    for (std::size_t b = 0; b < kLabelBuckets; ++b) {
      d.mix(p.labels_[b].tx_packets);
      d.mix(p.labels_[b].tx_bytes);
      d.mix(p.labels_[b].drop_packets);
    }
  }
  for (const stats::DDSketch& s : sketches_) {
    d.mix(s.count());
    d.mix_double(s.max());
  }
}

}  // namespace presto::telemetry::fabric
