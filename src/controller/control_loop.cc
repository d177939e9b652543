#include "controller/control_loop.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "controller/controller.h"
#include "telemetry/fabric/plane.h"

namespace presto::controller {
namespace {

// Congestion-score coefficients: drops dominate (a gray link's loss
// signature must outweigh any queue signal), then queue depth, then
// utilization above a 70% knee.
constexpr double kDropCoeff = 40.0;
constexpr double kDepthCoeff = 2.0;
constexpr double kUtilCoeff = 3.0;
constexpr double kUtilKnee = 0.7;

// Cost-model coefficients (horizon_cost): expected loss per unit of weight
// routed onto a lossy tree, quadratic control-effort penalty, and how hard
// a tree's drop rate eats into its effective service capacity.
constexpr double kLossCost = 50.0;
constexpr double kEffortCost = 0.5;
constexpr double kServiceDropPenalty = 4.0;
// Mild pull toward the proactive uniform prior. Sized against kEffortCost
// so that on a fabric with no congestion evidence the uniform-ward step
// beats holding a skewed vector (pull * (2 - gain) > effort * gain for any
// gain in (0, 1]) — without it an idle fabric would hold stale weights
// forever, breaking healthy-fabric convergence.
constexpr double kUniformPull = 0.25;

constexpr std::size_t kMaxHistory = 4096;

std::vector<double> uniform_weights(std::size_t n) {
  return std::vector<double>(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
}

/// The floor actually enforceable for `n` trees (n * floor must stay <= 1).
double effective_floor(double floor, std::size_t n) {
  if (n == 0) return 0.0;
  return std::min(std::max(floor, 0.0), 1.0 / static_cast<double>(n));
}

/// One gain-scaled step from `prev` toward `target`, additionally scaled so
/// no component moves by more than `max_delta`, written into `out`. Both
/// inputs normalized; the result stays normalized (the step sums to zero)
/// and each component stays between min(prev, target) and max(prev,
/// target), so a floor respected by both endpoints is respected by the
/// step.
void clamped_step(const std::vector<double>& prev,
                  const std::vector<double>& target, double alpha,
                  double max_delta, std::vector<double>& out) {
  const std::size_t n = prev.size();
  out.resize(n);
  double peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    peak = std::max(peak, alpha * std::abs(target[i] - prev[i]));
  }
  const double scale =
      peak > max_delta && peak > 0 ? max_delta / peak : 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = prev[i] + alpha * scale * (target[i] - prev[i]);
  }
}

}  // namespace

double congestion_score(const TreeSignal& s) {
  return kDropCoeff * s.drop_rate + kDepthCoeff * s.depth_frac +
         kUtilCoeff * std::max(0.0, s.util - kUtilKnee);
}

/// Water-filling: floored components are pinned, the rest share the
/// remaining mass proportionally. Terminates in <= n rounds.
void Reweighter::normalize_with_floor(std::vector<double>& w, double floor) {
  const std::size_t n = w.size();
  if (n == 0) return;
  double sum = 0;
  for (double& v : w) {
    v = std::max(v, 0.0);
    sum += v;
  }
  if (sum <= 0) {
    std::fill(w.begin(), w.end(), 1.0 / static_cast<double>(n));
    return;
  }
  for (double& v : w) v /= sum;
  pinned_.assign(n, 0);
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t pinned_count = 0;
    double free_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (pinned_[i]) {
        ++pinned_count;
      } else {
        free_sum += w[i];
      }
    }
    const double need =
        1.0 - floor * static_cast<double>(pinned_count);
    bool newly_pinned = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (pinned_[i]) continue;
      const double scaled = free_sum > 0
                                ? w[i] / free_sum * need
                                : need / static_cast<double>(n - pinned_count);
      if (scaled < floor) {
        pinned_[i] = 1;
        w[i] = floor;
        newly_pinned = true;
      } else {
        w[i] = scaled;
      }
    }
    if (!newly_pinned) break;
  }
}

double Reweighter::horizon_cost(const std::vector<double>& w,
                                const std::vector<double>& prev,
                                const std::vector<TreeSignal>& signals,
                                const ControlLoopConfig& cfg) {
  const std::size_t n = w.size();
  double load = 0;
  queue_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    queue_[i] = signals[i].depth_frac;
    load += signals[i].load_share;
  }
  double cost = 0;
  for (std::uint32_t step = 0; step < cfg.horizon; ++step) {
    for (std::size_t i = 0; i < n; ++i) {
      // Service capacity normalized to 1 per tree per period; a lossy tree
      // wastes capacity on retransmissions. Uniform weights on a healthy,
      // fully loaded fabric are exactly neutral (arrival == service).
      const double service = std::max(
          0.05, 1.0 - std::min(0.95, kServiceDropPenalty *
                                         signals[i].drop_rate));
      const double arrival = load * w[i] * static_cast<double>(n);
      queue_[i] = std::max(0.0, queue_[i] + arrival - service);
      cost += queue_[i] * queue_[i] + kLossCost * w[i] * signals[i].drop_rate;
    }
  }
  const double uniform = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = w[i] - prev[i];
    cost += kEffortCost * d * d;
    const double u = w[i] - uniform;
    cost += kUniformPull * u * u;
  }
  return cost;
}

void Reweighter::step(const std::vector<double>& prev,
                      const std::vector<TreeSignal>& signals,
                      const ControlLoopConfig& cfg, std::vector<double>& out) {
  const std::size_t n = prev.size();
  if (n == 0 || signals.size() != n) {
    out.assign(prev.begin(), prev.end());
    return;
  }
  const double floor = effective_floor(cfg.min_weight, n);
  // Reactive pass: the normalized desirability target, one clamped step.
  target_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    target_[i] = 1.0 / (1.0 + congestion_score(signals[i]));
  }
  normalize_with_floor(target_, floor);
  std::vector<double>& reactive = steps_[0];
  clamped_step(prev, target_, cfg.gain, cfg.max_delta, reactive);
  if (cfg.horizon == 0) {
    out.assign(reactive.begin(), reactive.end());
    return;
  }
  // Predictive pass. Candidate order is fixed and ties break toward the
  // earlier entry, so the choice is deterministic. Every candidate is a
  // clamped step from `prev`, so the per-period delta bound and the floor
  // hold regardless of which one wins.
  if (uniform_.size() != n || uniform_floor_ != floor) {
    uniform_.assign(n, 1.0 / static_cast<double>(n));
    normalize_with_floor(uniform_, floor);
    uniform_floor_ = floor;
  }
  clamped_step(prev, target_, cfg.gain * 0.5, cfg.max_delta, steps_[1]);
  clamped_step(prev, target_, std::min(1.0, cfg.gain * 2.0), cfg.max_delta,
               steps_[2]);
  clamped_step(prev, uniform_, cfg.gain, cfg.max_delta, steps_[3]);
  const std::vector<double>* candidates[] = {&reactive, &prev, &steps_[1],
                                             &steps_[2], &steps_[3]};
  // A candidate bitwise equal to an earlier one costs the same and so can
  // never win the tie-break; on a settled fabric every candidate equals
  // `prev` and nothing is scored at all.
  std::size_t distinct = 0;
  for (std::size_t c = 0; c < std::size(candidates); ++c) {
    bool repeat = false;
    for (std::size_t e = 0; e < distinct && !repeat; ++e) {
      repeat = std::memcmp(candidates[c]->data(), candidates[e]->data(),
                           n * sizeof(double)) == 0;
    }
    if (!repeat) candidates[distinct++] = candidates[c];
  }
  const std::vector<double>* best = candidates[0];
  if (distinct > 1) {
    double best_cost = horizon_cost(*best, prev, signals, cfg);
    for (std::size_t c = 1; c < distinct; ++c) {
      const double cost = horizon_cost(*candidates[c], prev, signals, cfg);
      if (cost < best_cost) {
        best = candidates[c];
        best_cost = cost;
      }
    }
  }
  out.assign(best->begin(), best->end());
}

std::string ControlLoopConfig::spec() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "p%" PRId64 ":g%.2f:d%.2f:b%.3f:f%.3f:h%u:a%u",
                static_cast<std::int64_t>(period / sim::kMicrosecond), gain,
                max_delta, deadband, min_weight, horizon,
                stale_after_periods);
  return buf;
}

bool ControlLoopConfig::parse(const std::string& text,
                              ControlLoopConfig* out) {
  ControlLoopConfig cfg;
  long long period_us = 0;
  unsigned horizon = 0, stale = 0;
  if (std::sscanf(text.c_str(), "p%lld:g%lf:d%lf:b%lf:f%lf:h%u:a%u",
                  &period_us, &cfg.gain, &cfg.max_delta, &cfg.deadband,
                  &cfg.min_weight, &horizon, &stale) != 7) {
    return false;
  }
  if (period_us <= 0 || cfg.gain < 0 || cfg.gain > 1 || cfg.max_delta <= 0 ||
      cfg.max_delta > 1 || cfg.deadband < 0 || cfg.deadband > 1 ||
      cfg.min_weight < 0 || cfg.min_weight > 0.5 || horizon > 64 ||
      stale == 0 || stale > 64) {
    return false;
  }
  cfg.enabled = true;
  cfg.period = static_cast<sim::Time>(period_us) * sim::kMicrosecond;
  cfg.horizon = horizon;
  cfg.stale_after_periods = stale;
  if (cfg.spec() != text) return false;
  *out = cfg;
  return true;
}

ControlLoop::ControlLoop(sim::Simulation& sim, Controller& ctl,
                         telemetry::fabric::FabricPlane& plane,
                         ControlLoopConfig cfg, std::uint64_t buffer_bytes)
    : sim_(sim),
      ctl_(ctl),
      plane_(plane),
      cfg_(cfg),
      buffer_bytes_(buffer_bytes == 0 ? 1 : buffer_bytes),
      weights_(uniform_weights(ctl.trees().size())),
      last_pushed_(weights_) {}

void ControlLoop::start() {
  if (started_ || !cfg_.enabled || cfg_.period <= 0) return;
  if (cfg_.stop_after > 0 && sim_.now() + cfg_.period >= cfg_.stop_after) {
    return;
  }
  started_ = true;
  sim_.schedule(cfg_.period, [this] { tick(); });
}

void ControlLoop::tick() {
  ++ticks_;
  // Ship this period's reports through the (faultable) control plane; they
  // land after the plane's report delay, so the signals below reflect the
  // previous rounds — one period of feedback latency, as on a real fabric.
  plane_.flush_now();
  gather_signals();
  reweighter_.step(weights_, signals_, cfg_, next_);
  weights_.swap(next_);
  double diff = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    diff = std::max(diff, std::abs(weights_[i] - last_pushed_[i]));
  }
  const bool push = !weights_.empty() && diff >= cfg_.deadband;
  if (push) {
    ctl_.set_tree_weights(weights_);
    ctl_.request_weighted_push();
    last_pushed_ = weights_;
    ++pushes_;
  } else {
    ++damped_;
  }
  if (history_.size() < kMaxHistory) {
    history_.push_back(HistoryEntry{sim_.now(), push});
    history_weights_.insert(history_weights_.end(), weights_.begin(),
                            weights_.end());
  }
  if (cfg_.stop_after == 0 || sim_.now() + cfg_.period < cfg_.stop_after) {
    sim_.schedule(cfg_.period, [this] { tick(); });
  }
}

void ControlLoop::gather_signals() {
  using telemetry::fabric::kLabelBuckets;
  using telemetry::fabric::kNonLabelBucket;
  const std::vector<Tree>& trees = ctl_.trees();
  const std::size_t n = trees.size();
  std::vector<TreeSignal>& sig = signals_;
  sig.assign(n, TreeSignal{});
  if (n == 0) return;
  const sim::Time now = sim_.now();
  const sim::Time stale_after =
      cfg_.period * static_cast<sim::Time>(cfg_.stale_after_periods);
  // Minimum per-switch packet attempts before a drop ratio is trusted —
  // one lost packet out of two is noise, not a gray link.
  constexpr std::uint64_t kMinAttempts = 4;
  std::vector<std::uint64_t>& tx_b = tree_bytes_;
  tx_b.assign(n, 0);
  plane_.collector().for_each_latest([&](std::uint32_t id,
                                         const telemetry::fabric::
                                             TelemetryReport& r) {
    if (now - r.emitted_at > stale_after) {
      // The switch's last accepted report predates the staleness window
      // (dropped/duplicated frames leave the collector's state behind);
      // acting on it would re-weight against a fabric that no longer
      // exists, so its contribution is withheld this period.
      ++stale_skips_;
      return;
    }
    if (id >= snapshots_.size()) snapshots_.resize(id + 1);
    SwitchSnapshot& snap = snapshots_[id];
    snap.seen = true;
    if (r.seq > snap.seq) {
      // A report whose label rows last moved at or before the baseline's
      // seq carries the baseline's rows: every delta would be zero.
      if (r.labels_seq == 0 || r.labels_seq > snap.seq) {
        for (std::size_t b = 0; b < kLabelBuckets && b < n; ++b) {
          if (b == kNonLabelBucket) continue;
          // Reports are cumulative, so the delta against the previous
          // accepted snapshot is this switch's window contribution.
          const telemetry::fabric::LabelTotals& base = snap.labels[b];
          const std::uint64_t d_tx =
              r.labels[b].tx_packets - base.tx_packets;
          const std::uint64_t d_dr =
              r.labels[b].drop_packets - base.drop_packets;
          tx_b[b] += r.labels[b].tx_bytes - base.tx_bytes;
          // A tree is only as healthy as its sickest hop: score each tree
          // by the worst per-switch loss ratio, not the fleet-wide sum — a
          // gray leaf-spine link must not be averaged away by the healthy
          // traffic every other switch carries on the same label.
          const std::uint64_t attempts = d_tx + d_dr;
          if (attempts >= kMinAttempts) {
            sig[b].drop_rate = std::max(
                sig[b].drop_rate,
                static_cast<double>(d_dr) / static_cast<double>(attempts));
          }
        }
        snap.labels = r.labels;
      }
      snap.seq = r.seq;
    }
    // Queue/utilization gauges attach to the trees rooted at this switch
    // (that is where asymmetric congestion pools on a Clos). The port
    // maxima are taken once per switch, on its first rooted tree.
    bool rooted = false;
    double depth = 0, util = 0;
    for (std::size_t t = 0; t < n; ++t) {
      if (trees[t].spine != id) continue;
      if (!rooted) {
        rooted = true;
        for (const telemetry::fabric::PortReport& p : r.ports) {
          depth = std::max(depth, p.queue_hwm_decayed /
                                      static_cast<double>(buffer_bytes_));
          util = std::max(util, p.util_ewma);
        }
        depth = std::min(1.0, depth);
        util = std::min(1.0, util);
      }
      sig[t].depth_frac = std::max(sig[t].depth_frac, depth);
      sig[t].util = std::max(sig[t].util, util);
    }
  });
  std::uint64_t total_bytes = 0;
  for (std::size_t t = 0; t < n; ++t) total_bytes += tx_b[t];
  if (drop_hold_.size() != n) drop_hold_.assign(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    // Peak-hold with geometric decay: Gilbert-Elliott loss is bursty, and a
    // period that happens to sample the good state must not bounce the tree
    // straight back to full weight mid-outage. Decays to zero within a few
    // periods of a heal, so the healthy-fabric convergence property holds.
    drop_hold_[t] = std::max(sig[t].drop_rate, drop_hold_[t] * 0.6);
    sig[t].drop_rate = drop_hold_[t];
    sig[t].load_share =
        total_bytes == 0 ? 0.0
                         : static_cast<double>(tx_b[t]) /
                               static_cast<double>(total_bytes);
  }
}

std::string ControlLoop::history_json() const {
  std::string out = "{\"schema\":\"presto.schedule_history\",\"version\":1,";
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"period_us\":%" PRId64 ",",
                static_cast<std::int64_t>(cfg_.period / sim::kMicrosecond));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"ticks\":%" PRIu64 ",\"pushes\":%" PRIu64
                ",\"damped\":%" PRIu64 ",\"stale_skips\":%" PRIu64 ",",
                ticks_, pushes_, damped_, stale_skips_);
  out += buf;
  out += "\"entries\":[";
  const std::size_t trees = weights_.size();
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const HistoryEntry& e = history_[i];
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof buf, "{\"t_us\":%" PRId64 ",\"pushed\":%s,",
                  static_cast<std::int64_t>(e.at / sim::kMicrosecond),
                  e.pushed ? "true" : "false");
    out += buf;
    out += "\"weights\":[";
    for (std::size_t w = 0; w < trees; ++w) {
      if (w > 0) out += ',';
      std::snprintf(buf, sizeof buf, "%.4f", history_weights_[i * trees + w]);
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void ControlLoop::digest_state(sim::Digest& d) const {
  auto mix_double = [&d](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    d.mix(bits);
  };
  d.mix(ticks_);
  d.mix(pushes_);
  d.mix(damped_);
  d.mix(stale_skips_);
  for (double w : weights_) mix_double(w);
  for (double w : last_pushed_) mix_double(w);
  for (double v : drop_hold_) mix_double(v);
  std::uint64_t seen = 0;
  for (const SwitchSnapshot& snap : snapshots_) seen += snap.seen ? 1 : 0;
  d.mix(seen);
  for (std::size_t id = 0; id < snapshots_.size(); ++id) {
    if (!snapshots_[id].seen) continue;
    d.mix(static_cast<std::uint64_t>(id));
    d.mix(snapshots_[id].seq);
  }
  d.mix(static_cast<std::uint64_t>(history_.size()));
}

}  // namespace presto::controller
