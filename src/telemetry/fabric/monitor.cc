#include "telemetry/fabric/monitor.h"

namespace presto::telemetry::fabric {

void PortMonitor::close_window(sim::Time now, sim::Time window_start,
                               PortReport& out,
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

  out = r_;
}

void SwitchMonitor::snapshot(sim::Time now, TelemetryReport& out) {
  out.switch_id = id_;
  out.seq = ++seq_;
  out.emitted_at = now;
  out.ports.resize(ports_.size());
  for (std::size_t b = 0; b < kLabelBuckets; ++b) {
    out.labels[b] = LabelTotals{0, 0, label_no_route_[b]};
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i].close_window(now, window_start_, out.ports[i], out.labels);
  }
  // Sketch counts only grow, so an unchanged total means no sample landed
  // and the published copy still equals sketches_.
  std::uint64_t samples = 0;
  for (const stats::DDSketch& s : sketches_) samples += s.count();
  if (published_ == nullptr || samples != published_samples_) {
    published_ =
        std::make_shared<const std::vector<stats::DDSketch>>(sketches_);
    published_samples_ = samples;
  }
  out.label_depth = published_;  // collector dedupes on seq
  window_start_ = now;
}

void SwitchMonitor::digest_state(sim::Digest& d) const {
  d.mix(id_);
  d.mix(seq_);
  d.mix(no_route_drops_);
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
