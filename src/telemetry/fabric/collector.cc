#include "telemetry/fabric/collector.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace presto::telemetry::fabric {

namespace {

std::string label_name(std::size_t bucket) {
  if (bucket == kNonLabelBucket) return "other";
  char buf[8];
  std::snprintf(buf, sizeof(buf), "t%zu", bucket);
  return buf;
}

double loss_pct(std::uint64_t drops, std::uint64_t tx) {
  const std::uint64_t total = drops + tx;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(drops) /
                          static_cast<double>(total);
}

}  // namespace

void FabricCollector::expect_switch(std::uint32_t id, std::size_t ports) {
  SwitchState& st = switches_[id];
  st.hot_streak.assign(ports, 0);
}

void FabricCollector::on_report(TelemetryReport&& r, sim::Time arrival) {
  SwitchState& st = switches_[r.switch_id];
  ++st.acct.received;
  if (st.acct.has_report && r.seq <= st.acct.last_seq) {
    // Cumulative reports carry nothing new when stale: pure accounting.
    if (r.seq == st.acct.last_seq) {
      ++st.acct.duplicates;
    } else {
      ++st.acct.reordered;
    }
    return;
  }
  // Every report from r.labels_seq to r.seq carries the same label rows
  // and sketches, so a latest report inside that run already holds them.
  const bool same_labels = st.acct.has_report && r.labels_seq != 0 &&
                           r.labels_seq <= st.latest.seq;
  if (r.seq > st.acct.last_seq + 1) {
    st.acct.lost += r.seq - st.acct.last_seq - 1;
  }
  st.acct.last_seq = r.seq;
  st.acct.last_accept_at = arrival;
  st.acct.has_report = true;
  ++st.acct.accepted;
  if (st.hot_streak.size() < r.ports.size()) {
    st.hot_streak.resize(r.ports.size(), 0);
  }
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    if (r.ports[i].util_ewma >= cfg_.hotspot_util) {
      ++st.hot_streak[i];
    } else {
      st.hot_streak[i] = 0;
    }
  }
  // Hand the previous latest's header and storage back through `r`.
  std::swap(st.latest.switch_id, r.switch_id);
  std::swap(st.latest.seq, r.seq);
  std::swap(st.latest.emitted_at, r.emitted_at);
  std::swap(st.latest.labels_seq, r.labels_seq);
  st.latest.ports.swap(r.ports);
  if (same_labels) return;
  st.latest.labels = r.labels;
  st.latest.label_depth.swap(r.label_depth);
}

void FabricCollector::aggregate_labels(std::vector<LabelAgg>& agg,
                                       std::vector<stats::DDSketch>& depth) const {
  agg.assign(kLabelBuckets, LabelAgg{});
  depth.assign(kLabelBuckets, stats::DDSketch{});
  for (const auto& [id, st] : switches_) {
    if (!st.acct.has_report) continue;
    for (std::size_t b = 0; b < kLabelBuckets; ++b) {
      agg[b].tx_packets += st.latest.labels[b].tx_packets;
      agg[b].tx_bytes += st.latest.labels[b].tx_bytes;
      agg[b].drop_packets += st.latest.labels[b].drop_packets;
      if (st.latest.label_depth != nullptr &&
          b < st.latest.label_depth->size()) {
        depth[b].merge((*st.latest.label_depth)[b]);
      }
    }
  }
}

double FabricCollector::imbalance_index() const {
  std::vector<LabelAgg> agg;
  std::vector<stats::DDSketch> depth;
  aggregate_labels(agg, depth);
  std::uint64_t max_b = 0;
  std::uint64_t sum = 0;
  std::size_t active = 0;
  for (std::size_t b = 0; b < kNonLabelBucket; ++b) {
    if (agg[b].tx_bytes == 0) continue;
    ++active;
    sum += agg[b].tx_bytes;
    max_b = std::max(max_b, agg[b].tx_bytes);
  }
  if (active == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(active);
  return mean > 0 ? static_cast<double>(max_b) / mean : 0.0;
}

void FabricCollector::render_health(JsonWriter& w, sim::Time now) const {
  std::vector<LabelAgg> agg;
  std::vector<stats::DDSketch> depth;
  aggregate_labels(agg, depth);

  w.begin_object();
  w.key("schema");
  w.value(kHealthSchemaName);
  w.key("schema_version");
  w.value(kHealthSchemaVersion);
  w.key("generated_at_ns");
  w.value(static_cast<std::uint64_t>(now));
  w.key("flush_period_ns");
  w.value(static_cast<std::uint64_t>(cfg_.flush_period));

  // -- collector / protocol accounting --
  std::uint64_t received = 0, accepted = 0, duplicates = 0, reordered = 0,
                lost = 0;
  std::size_t silent = 0;
  std::vector<std::pair<std::uint32_t, double>> silent_switches;
  for (const auto& [id, st] : switches_) {
    received += st.acct.received;
    accepted += st.acct.accepted;
    duplicates += st.acct.duplicates;
    reordered += st.acct.reordered;
    lost += st.acct.lost;
    if (cfg_.flush_period > 0) {
      // A switch is "silent" after this many flush periods without an
      // accepted report.
      constexpr std::uint32_t kSilentAfterPeriods = 2;
      double staleness = -1.0;  // "never reported"
      if (st.acct.has_report) {
        // Emission-based, not arrival-based: a control plane that delays
        // every report by N periods keeps frames *arriving* steadily while
        // the data it delivers ages — that is exactly the staleness the
        // detector must see.
        staleness = static_cast<double>(now - st.latest.emitted_at) /
                    static_cast<double>(cfg_.flush_period);
      }
      if (staleness < 0 || staleness > kSilentAfterPeriods) {
        ++silent;
        silent_switches.emplace_back(id, staleness);
      }
    }
  }
  w.key("collector");
  w.begin_object();
  w.key("switches");
  w.value(static_cast<std::uint64_t>(switches_.size()));
  w.key("reports_received");
  w.value(received);
  w.key("reports_accepted");
  w.value(accepted);
  w.key("duplicates");
  w.value(duplicates);
  w.key("reordered");
  w.value(reordered);
  w.key("lost");
  w.value(lost);
  w.key("silent_switches");
  w.value(static_cast<std::uint64_t>(silent));
  w.end_object();

  // -- per-label totals + merged depth sketches --
  double mean_loss = 0.0;
  std::size_t active_loss_labels = 0;
  for (std::size_t b = 0; b < kNonLabelBucket; ++b) {
    if (agg[b].tx_packets + agg[b].drop_packets == 0) continue;
    ++active_loss_labels;
    mean_loss += loss_pct(agg[b].drop_packets, agg[b].tx_packets);
  }
  if (active_loss_labels > 0) {
    mean_loss /= static_cast<double>(active_loss_labels);
  }
  w.key("labels");
  w.begin_object();
  for (std::size_t b = 0; b < kLabelBuckets; ++b) {
    if (agg[b].tx_packets + agg[b].drop_packets == 0 &&
        depth[b].empty()) {
      continue;
    }
    w.key(label_name(b));
    w.begin_object();
    w.key("tx_packets");
    w.value(agg[b].tx_packets);
    w.key("tx_bytes");
    w.value(agg[b].tx_bytes);
    w.key("drop_packets");
    w.value(agg[b].drop_packets);
    w.key("loss_pct");
    w.value(loss_pct(agg[b].drop_packets, agg[b].tx_packets));
    w.key("depth_samples");
    w.value(depth[b].count());
    w.key("depth_p50");
    w.value(depth[b].percentile(50));
    w.key("depth_p99");
    w.value(depth[b].percentile(99));
    w.key("depth_max");
    w.value(depth[b].max());
    w.end_object();
  }
  w.end_object();

  // -- anomalies --
  w.key("anomalies");
  w.begin_object();

  // Spray imbalance over the tree labels that carried traffic.
  std::uint64_t max_bytes = 0, sum_bytes = 0;
  std::size_t active = 0;
  std::size_t hot_label = kNonLabelBucket, cold_label = kNonLabelBucket;
  std::uint64_t cold_bytes = 0;
  for (std::size_t b = 0; b < kNonLabelBucket; ++b) {
    if (agg[b].tx_bytes == 0) continue;
    ++active;
    sum_bytes += agg[b].tx_bytes;
    if (agg[b].tx_bytes > max_bytes) {
      max_bytes = agg[b].tx_bytes;
      hot_label = b;
    }
    if (cold_label == kNonLabelBucket || agg[b].tx_bytes < cold_bytes) {
      cold_bytes = agg[b].tx_bytes;
      cold_label = b;
    }
  }
  const double mean_bytes =
      active > 0 ? static_cast<double>(sum_bytes) / static_cast<double>(active)
                 : 0.0;
  const double imbalance =
      mean_bytes > 0 ? static_cast<double>(max_bytes) / mean_bytes : 0.0;
  // Spray-imbalance index (max/mean per-label tx bytes) at/above which the
  // label group is flagged imbalanced.
  constexpr double kImbalanceThreshold = 1.5;
  w.key("imbalance");
  w.begin_object();
  w.key("index");
  w.value(imbalance);
  w.key("flagged");
  w.value(active > 0 && imbalance >= kImbalanceThreshold);
  w.key("active_labels");
  w.value(static_cast<std::uint64_t>(active));
  if (active > 0) {
    w.key("hot_label");
    w.value(label_name(hot_label));
    w.key("cold_label");
    w.value(label_name(cold_label));
  }
  w.end_object();

  // Per-label loss outliers: the gray-link signature (one tree's paths
  // cross the degraded link, so its loss ratio stands out). Each label is
  // compared against the mean of the *other* active labels (leave-one-out):
  // with few labels a single outlier dominates the global mean, capping the
  // achievable ratio at the label count and masking exactly the cases the
  // detector exists for. A label is an outlier when its loss% is at least
  // kLossOutlierFactor times that mean and at least kLossOutlierMinPct.
  constexpr double kLossOutlierFactor = 4.0;
  constexpr double kLossOutlierMinPct = 0.5;
  w.key("loss_outliers");
  w.begin_array();
  const double loss_sum = mean_loss * static_cast<double>(active_loss_labels);
  for (std::size_t b = 0; b < kNonLabelBucket; ++b) {
    if (agg[b].tx_packets + agg[b].drop_packets == 0) continue;
    const double lp = loss_pct(agg[b].drop_packets, agg[b].tx_packets);
    if (lp < kLossOutlierMinPct) continue;
    const double mean_others =
        active_loss_labels > 1
            ? (loss_sum - lp) / static_cast<double>(active_loss_labels - 1)
            : 0.0;
    if (lp < kLossOutlierFactor * mean_others && mean_others > 0) {
      continue;
    }
    w.begin_object();
    w.key("label");
    w.value(label_name(b));
    w.key("loss_pct");
    w.value(lp);
    w.key("mean_loss_pct");
    w.value(mean_others);
    w.key("drop_packets");
    w.value(agg[b].drop_packets);
    w.end_object();
  }
  w.end_array();

  // Persistent hotspots: ports hot for >= hotspot_consecutive reports.
  w.key("hotspots");
  w.begin_array();
  for (const auto& [id, st] : switches_) {
    if (!st.acct.has_report) continue;
    for (std::size_t i = 0; i < st.latest.ports.size(); ++i) {
      if (i >= st.hot_streak.size() ||
          st.hot_streak[i] < cfg_.hotspot_consecutive) {
        continue;
      }
      w.begin_object();
      w.key("switch");
      w.value(static_cast<std::uint64_t>(id));
      w.key("port");
      w.value(static_cast<std::uint64_t>(i));
      w.key("util_ewma");
      w.value(st.latest.ports[i].util_ewma);
      w.key("streak");
      w.value(static_cast<std::uint64_t>(st.hot_streak[i]));
      w.end_object();
    }
  }
  w.end_array();

  // Silent switches (staleness detector; -1 staleness = never reported).
  w.key("silent_switches");
  w.begin_array();
  for (const auto& [id, staleness] : silent_switches) {
    w.begin_object();
    w.key("switch");
    w.value(static_cast<std::uint64_t>(id));
    w.key("staleness_periods");
    w.value(staleness);
    w.end_object();
  }
  w.end_array();

  // Microburst ranking: the top kMicroburstTop (switch, port) by longest
  // episode.
  constexpr std::uint32_t kMicroburstTop = 5;
  struct BurstRow {
    std::uint32_t sw;
    std::size_t port;
    const PortReport* r;
  };
  std::vector<BurstRow> bursts;
  for (const auto& [id, st] : switches_) {
    if (!st.acct.has_report) continue;
    for (std::size_t i = 0; i < st.latest.ports.size(); ++i) {
      if (st.latest.ports[i].microburst_episodes > 0) {
        bursts.push_back(BurstRow{id, i, &st.latest.ports[i]});
      }
    }
  }
  std::sort(bursts.begin(), bursts.end(),
            [](const BurstRow& a, const BurstRow& b) {
              if (a.r->microburst_max_duration != b.r->microburst_max_duration)
                return a.r->microburst_max_duration >
                       b.r->microburst_max_duration;
              if (a.sw != b.sw) return a.sw < b.sw;
              return a.port < b.port;
            });
  if (bursts.size() > kMicroburstTop) bursts.resize(kMicroburstTop);
  w.key("microbursts");
  w.begin_array();
  for (const BurstRow& row : bursts) {
    w.begin_object();
    w.key("switch");
    w.value(static_cast<std::uint64_t>(row.sw));
    w.key("port");
    w.value(static_cast<std::uint64_t>(row.port));
    w.key("episodes");
    w.value(row.r->microburst_episodes);
    w.key("max_duration_ns");
    w.value(static_cast<std::uint64_t>(row.r->microburst_max_duration));
    w.key("peak_bytes");
    w.value(row.r->microburst_peak_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();  // anomalies

  // -- per-switch detail --
  w.key("switches");
  w.begin_array();
  for (const auto& [id, st] : switches_) {
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::uint64_t>(id));
    w.key("reports_received");
    w.value(st.acct.received);
    w.key("duplicates");
    w.value(st.acct.duplicates);
    w.key("reordered");
    w.value(st.acct.reordered);
    w.key("lost");
    w.value(st.acct.lost);
    w.key("last_seq");
    w.value(st.acct.last_seq);
    w.key("age_ns");
    w.value(st.acct.has_report
                ? static_cast<std::uint64_t>(now - st.acct.last_accept_at)
                : 0);
    w.key("ports");
    w.begin_array();
    for (const PortReport& p :
         st.acct.has_report ? st.latest.ports : std::vector<PortReport>{}) {
      w.begin_object();
      w.key("tx_packets");
      w.value(p.tx_packets);
      w.key("tx_bytes");
      w.value(p.tx_bytes);
      w.key("drops");
      std::uint64_t total_drops = 0;
      for (std::uint64_t v : p.drops) total_drops += v;
      w.value(total_drops);
      w.key("queue_hwm_bytes");
      w.value(p.queue_hwm_bytes);
      w.key("queue_hwm_decayed");
      w.value(p.queue_hwm_decayed);
      w.key("util_ewma");
      w.value(p.util_ewma);
      w.key("microburst_episodes");
      w.value(p.microburst_episodes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string FabricCollector::health_json(sim::Time now) const {
  JsonWriter w;
  render_health(w, now);
  return std::move(w).str();
}

void FabricCollector::digest_state(sim::Digest& d) const {
  d.mix(static_cast<std::uint64_t>(switches_.size()));
  for (const auto& [id, st] : switches_) {
    d.mix(id);
    d.mix(st.acct.received);
    d.mix(st.acct.accepted);
    d.mix(st.acct.duplicates);
    d.mix(st.acct.reordered);
    d.mix(st.acct.lost);
    d.mix(st.acct.last_seq);
    d.mix_time(st.acct.last_accept_at);
    // The latest accepted report's header and port gauges, and the
    // hotspot streaks they feed.
    d.mix(st.latest.seq);
    d.mix_time(st.latest.emitted_at);
    d.mix(static_cast<std::uint64_t>(st.latest.ports.size()));
    for (const PortReport& p : st.latest.ports) {
      d.mix(p.queue_hwm_bytes);
      d.mix_double(p.queue_hwm_decayed);
      d.mix_double(p.util_ewma);
    }
    for (std::uint32_t streak : st.hot_streak) d.mix(streak);
  }
}

}  // namespace presto::telemetry::fabric
