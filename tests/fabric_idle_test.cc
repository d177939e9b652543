// Differential test for the telemetry plane's idle path (DESIGN.md §15.1,
// §15.2). Randomized per-port event streams drive real SwitchMonitors and
// a reference model that folds every counter and closes every port the
// full way on every snapshot, as the monitor did before its idle
// shortcuts. Every report field must match bit for bit (doubles by bit
// pattern). The reports then cross a faulty control plane — dropped,
// duplicated and delayed past later frames — into two FabricCollectors:
// one fed the monitors' reports in recycled slots, one fed the
// reference's reports, which carry no labels_seq and so always take the
// full hand-off. Their accounting, latest reports, digests (hotspot
// streaks included) and fabric_health documents must agree after every
// delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/digest.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "stats/ddsketch.h"
#include "telemetry/fabric/collector.h"
#include "telemetry/fabric/monitor.h"

namespace presto::telemetry::fabric {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The switch monitor without its shortcuts: every snapshot folds every
/// port's label rows, runs every port's gauge updates and copies the
/// sketches.
class ReferenceSwitch {
 public:
  ReferenceSwitch(std::uint32_t id, const FabricConfig& cfg, std::size_t ports,
                  double rate_bps)
      : id_(id), cfg_(cfg), ports_(ports), sketches_(kLabelBuckets) {
    for (Port& p : ports_) p.rate_bps = rate_bps;
  }

  void enqueue(std::size_t port, std::uint64_t depth, std::uint32_t bucket,
               sim::Time now) {
    Port& p = ports_[port];
    p.depth = depth;
    if (depth > p.hwm_live) p.hwm_live = depth;
    if (p.in_burst) {
      if (depth > p.burst_peak) p.burst_peak = depth;
    } else if (depth >= cfg_.microburst_threshold_bytes) {
      p.in_burst = true;
      p.burst_start = now;
      p.burst_peak = depth;
    }
    const std::uint64_t mask = (1u << cfg_.sketch_sample_shift) - 1;
    if ((++p.enqueued & mask) == 0) {
      sketches_[bucket].add(static_cast<double>(depth));
    }
  }

  void tx(std::size_t port, std::uint32_t bytes, std::uint64_t depth,
          std::uint32_t bucket, sim::Time now) {
    Port& p = ports_[port];
    ++p.labels[bucket].tx_packets;
    p.labels[bucket].tx_bytes += bytes;
    p.depth = depth;
    if (p.in_burst && depth < cfg_.microburst_threshold_bytes) {
      p.in_burst = false;
      ++p.r.microburst_episodes;
      if (now - p.burst_start > p.r.microburst_max_duration) {
        p.r.microburst_max_duration = now - p.burst_start;
      }
      if (p.burst_peak > p.r.microburst_peak_bytes) {
        p.r.microburst_peak_bytes = p.burst_peak;
      }
    }
  }

  void drop(std::size_t port, std::uint32_t bucket, net::DropCause cause) {
    if (cause == net::DropCause::kNoRoute) {
      ++no_route_[bucket];
      return;
    }
    Port& p = ports_[port];
    ++p.r.drops[static_cast<std::size_t>(net::counted_cause(cause))];
    ++p.labels[bucket].drop_packets;
  }

  TelemetryReport snapshot(sim::Time now) {
    TelemetryReport out;
    out.switch_id = id_;
    out.seq = ++seq_;
    out.emitted_at = now;
    for (std::size_t b = 0; b < kLabelBuckets; ++b) {
      out.labels[b].drop_packets = no_route_[b];
    }
    const sim::Time dt = now - window_start_;
    for (Port& p : ports_) {
      p.r.tx_packets = 0;
      p.r.tx_bytes = 0;
      for (std::size_t b = 0; b < kLabelBuckets; ++b) {
        p.r.tx_packets += p.labels[b].tx_packets;
        p.r.tx_bytes += p.labels[b].tx_bytes;
        out.labels[b].tx_packets += p.labels[b].tx_packets;
        out.labels[b].tx_bytes += p.labels[b].tx_bytes;
        out.labels[b].drop_packets += p.labels[b].drop_packets;
      }
      p.r.enqueued_packets = p.enqueued;
      if (dt > 0 && p.rate_bps > 0) {
        const double sent_bits =
            8.0 * static_cast<double>(p.r.tx_bytes - p.window_tx_base);
        const double capacity_bits =
            p.rate_bps * (static_cast<double>(dt) * 1e-9);
        double inst = capacity_bits > 0 ? sent_bits / capacity_bits : 0.0;
        if (inst > 1.0) inst = 1.0;
        const double a = cfg_.util_alpha;
        p.r.util_ewma = p.window_tx_base == 0 && p.r.util_ewma == 0.0
                            ? inst
                            : a * inst + (1.0 - a) * p.r.util_ewma;
        p.window_tx_base = p.r.tx_bytes;
      }
      double decayed = p.hwm_window * cfg_.hwm_decay;
      if (static_cast<double>(p.hwm_live) > decayed) {
        decayed = static_cast<double>(p.hwm_live);
      }
      if (decayed < static_cast<double>(p.depth)) {
        decayed = static_cast<double>(p.depth);
      }
      p.hwm_window = decayed;
      p.r.queue_hwm_decayed = decayed;
      if (p.hwm_live > p.r.queue_hwm_bytes) p.r.queue_hwm_bytes = p.hwm_live;
      p.hwm_live = p.depth;
      out.ports.push_back(p.r);
    }
    out.label_depth =
        std::make_shared<const std::vector<stats::DDSketch>>(sketches_);
    window_start_ = now;
    return out;
  }

 private:
  struct Port {
    double rate_bps = 0;
    std::uint64_t depth = 0;
    std::uint64_t hwm_live = 0;
    std::uint64_t enqueued = 0;
    bool in_burst = false;
    sim::Time burst_start = 0;
    std::uint64_t burst_peak = 0;
    std::array<LabelTotals, kLabelBuckets> labels{};
    PortReport r;
    double hwm_window = 0;
    std::uint64_t window_tx_base = 0;
  };

  std::uint32_t id_;
  FabricConfig cfg_;
  std::vector<Port> ports_;
  std::vector<stats::DDSketch> sketches_;
  std::array<std::uint64_t, kLabelBuckets> no_route_{};
  std::uint64_t seq_ = 0;
  sim::Time window_start_ = 0;
};

/// Sketch equality by count and extremes, and with `deep` by percentiles.
bool same_sketch(const stats::DDSketch& a, const stats::DDSketch& b,
                 bool deep) {
  if (a.count() != b.count() || bits(a.min()) != bits(b.min()) ||
      bits(a.max()) != bits(b.max()) || bits(a.mean()) != bits(b.mean())) {
    return false;
  }
  if (!deep) return true;
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    if (bits(a.percentile(p)) != bits(b.percentile(p))) return false;
  }
  return true;
}

/// The first field in which two reports differ ("" when none), doubles
/// by bit pattern. labels_seq is a hint the reference never sets, so it
/// is not compared. `deep` compares sketch percentiles too.
std::string report_diff(const TelemetryReport& got,
                        const TelemetryReport& want, bool deep) {
  const auto at = [&want](const std::string& what) {
    return "switch " + std::to_string(want.switch_id) + " seq " +
           std::to_string(want.seq) + ": " + what;
  };
  if (got.switch_id != want.switch_id || got.seq != want.seq ||
      got.emitted_at != want.emitted_at) {
    return at("header");
  }
  if (got.ports.size() != want.ports.size()) return at("port count");
  for (std::size_t i = 0; i < want.ports.size(); ++i) {
    const PortReport& g = got.ports[i];
    const PortReport& w = want.ports[i];
    const auto port = [&at, i](const char* what) {
      return at("port " + std::to_string(i) + " " + what);
    };
    if (g.tx_packets != w.tx_packets || g.tx_bytes != w.tx_bytes ||
        g.enqueued_packets != w.enqueued_packets || g.drops != w.drops) {
      return port("counters");
    }
    if (g.queue_hwm_bytes != w.queue_hwm_bytes ||
        bits(g.queue_hwm_decayed) != bits(w.queue_hwm_decayed)) {
      return port("hwm");
    }
    if (bits(g.util_ewma) != bits(w.util_ewma)) return port("util_ewma");
    if (g.microburst_episodes != w.microburst_episodes ||
        g.microburst_max_duration != w.microburst_max_duration ||
        g.microburst_peak_bytes != w.microburst_peak_bytes) {
      return port("microbursts");
    }
  }
  for (std::size_t b = 0; b < kLabelBuckets; ++b) {
    if (got.labels[b].tx_packets != want.labels[b].tx_packets ||
        got.labels[b].tx_bytes != want.labels[b].tx_bytes ||
        got.labels[b].drop_packets != want.labels[b].drop_packets) {
      return at("label " + std::to_string(b));
    }
  }
  if (got.label_depth == nullptr || want.label_depth == nullptr ||
      got.label_depth->size() != want.label_depth->size()) {
    return at("sketch vector");
  }
  for (std::size_t b = 0; b < want.label_depth->size(); ++b) {
    if (!same_sketch((*got.label_depth)[b], (*want.label_depth)[b], deep)) {
      return at("sketch " + std::to_string(b));
    }
  }
  return "";
}

/// A frame of `bytes` buffer bytes carrying spanning tree `tree`'s label
/// (tree kNonLabelBucket: a real-MAC frame).
net::Packet frame(std::uint32_t bytes, std::uint32_t tree) {
  net::Packet p;
  p.dst_mac = tree == kNonLabelBucket ? net::real_mac(1)
                                      : net::shadow_mac(0, tree);
  p.payload = bytes - net::kHeaderBytes;
  return p;
}

/// One switch under test: the real monitor, the reference, and the queue
/// each port's depth is tracked in.
struct Pair {
  Pair(const sim::Simulation& sim, std::uint32_t id, const FabricConfig& cfg,
       std::size_t ports, double rate_bps)
      : mon(sim, id, cfg), ref(id, cfg, ports, rate_bps), queues(ports) {
    for (std::size_t i = 0; i < ports; ++i) mon.add_port(rate_bps);
  }
  SwitchMonitor mon;
  ReferenceSwitch ref;
  /// Queued frames per port: (buffer bytes, label bucket).
  std::vector<std::deque<std::pair<std::uint32_t, std::uint32_t>>> queues;
  std::vector<std::uint64_t> depth = std::vector<std::uint64_t>(queues.size());
};

/// What a window holds.
enum class Window {
  kTraffic,   ///< enqueues, transmits and drops on random ports
  kDropOnly,  ///< port drops and nothing else
  kNoRoute,   ///< no-route drops and nothing else
  kIdle,      ///< no event
};

/// A frame in flight on the faulty control plane: the monitor's report in
/// a recycled slot and the reference's report for the same flush.
struct InFlight {
  std::uint64_t due = 0;    ///< delivery round
  std::uint64_t order = 0;  ///< send order, to break ties
  std::uint32_t slot = 0;
  TelemetryReport ref;
};

TEST(FabricIdlePath, ShortcutsMatchTheFullCloseThroughAFaultyControlPlane) {
  FabricConfig cfg;
  cfg.microburst_threshold_bytes = 9000;
  cfg.sketch_sample_shift = 2;  // a depth sample every 4th enqueue
  cfg.hotspot_util = 0.25;      // traffic windows make hot ports
  cfg.hotspot_consecutive = 2;
  constexpr std::uint32_t kSwitches = 3;
  constexpr std::size_t kPorts = 3;
  constexpr double kRate = 8e9;  // one byte per ns
  constexpr sim::Time kWindow = 4000;

  sim::Simulation sim;
  std::vector<std::unique_ptr<Pair>> sw;
  FabricCollector got(cfg);
  FabricCollector want(cfg);
  for (std::uint32_t id = 0; id < kSwitches; ++id) {
    sw.push_back(std::make_unique<Pair>(sim, id, cfg, kPorts, kRate));
    got.expect_switch(id, kPorts);
    want.expect_switch(id, kPorts);
  }
  sim::Rng rng(0x1D1E'0A7F);

  // Recycled report storage, as FabricPlane keeps it.
  std::vector<TelemetryReport> slots;
  std::vector<std::uint32_t> free_slots;
  auto acquire = [&] {
    if (free_slots.empty()) {
      slots.emplace_back();
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t s = free_slots.back();
    free_slots.pop_back();
    return s;
  };
  std::vector<InFlight> wire;
  std::uint64_t sent = 0;
  std::uint64_t round = 0;

  // The first difference between the two collectors ("" when none).
  auto collector_diff = [&]() -> std::string {
    for (std::uint32_t id = 0; id < kSwitches; ++id) {
      const FabricCollector::Accounting* g = got.accounting(id);
      const FabricCollector::Accounting* w = want.accounting(id);
      if (g->received != w->received || g->accepted != w->accepted ||
          g->duplicates != w->duplicates || g->reordered != w->reordered ||
          g->lost != w->lost || g->last_seq != w->last_seq ||
          g->last_accept_at != w->last_accept_at) {
        return "accounting of switch " + std::to_string(id);
      }
      const TelemetryReport* gl = got.latest_report(id);
      const TelemetryReport* wl = want.latest_report(id);
      if ((gl == nullptr) != (wl == nullptr)) return "latest presence";
      if (wl != nullptr) {
        const std::string d = report_diff(*gl, *wl, false);
        if (!d.empty()) return "latest " + d;
      }
    }
    sim::Digest dg, dw;
    got.digest_state(dg);
    want.digest_state(dw);
    return dg.value() == dw.value() ? "" : "collector digest";
  };

  // Delivers every frame due by `round`, in due order.
  auto deliver_due = [&] {
    std::sort(wire.begin(), wire.end(),
              [](const InFlight& a, const InFlight& b) {
                return a.due != b.due ? a.due < b.due : a.order < b.order;
              });
    std::size_t n = 0;
    while (n < wire.size() && wire[n].due <= round) {
      InFlight& f = wire[n++];
      got.on_report(std::move(slots[f.slot]), sim.now());
      free_slots.push_back(f.slot);
      want.on_report(std::move(f.ref), sim.now());
      const std::string d = collector_diff();
      ASSERT_EQ(d, "") << "round " << round;
    }
    wire.erase(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(n));
  };

  // Snapshots every switch at sim.now() and sends both reports out.
  auto flush = [&] {
    for (auto& p : sw) {
      const std::uint32_t slot = acquire();
      p->mon.snapshot(sim.now(), slots[slot]);
      TelemetryReport ref = p->ref.snapshot(sim.now());
      const std::string d = report_diff(slots[slot], ref, true);
      ASSERT_EQ(d, "") << "round " << round;
      // The control plane: drop, delay by up to four rounds (so late
      // frames land after newer ones), or duplicate onto a longer path.
      const std::uint64_t fate = rng.below(10);
      if (fate == 0) {
        free_slots.push_back(slot);
        continue;
      }
      const std::uint64_t delay = fate <= 2 ? 1 + rng.below(4) : 0;
      if (fate == 3) {
        const std::uint32_t copy = acquire();
        slots[copy] = slots[slot];
        wire.push_back(InFlight{round + delay + 2, sent++, copy, ref});
      }
      wire.push_back(InFlight{round + delay, sent++, slot, std::move(ref)});
    }
    deliver_due();
    ++round;
  };

  auto traffic_event = [&](Pair& p, sim::Time now) {
    const std::size_t port = rng.below(kPorts);
    const std::uint32_t bucket = static_cast<std::uint32_t>(
        rng.below(4) == 0 ? kNonLabelBucket : rng.below(6));
    auto& q = p.queues[port];
    switch (rng.below(5)) {
      case 0:
      case 1: {  // enqueue
        const std::uint32_t bytes =
            static_cast<std::uint32_t>(64 + rng.below(1500));
        q.emplace_back(bytes, bucket);
        p.depth[port] += bytes;
        p.mon.on_enqueue(p.mon.switch_id(), static_cast<net::PortId>(port),
                         frame(bytes, bucket), p.depth[port]);
        p.ref.enqueue(port, p.depth[port], bucket, now);
        break;
      }
      case 2:
      case 3: {  // transmit the head frame
        if (q.empty()) break;
        const auto [bytes, b] = q.front();
        q.pop_front();
        p.depth[port] -= bytes;
        p.mon.on_tx(p.mon.switch_id(), static_cast<net::PortId>(port),
                    frame(bytes, b), p.depth[port]);
        p.ref.tx(port, bytes, p.depth[port], b, now);
        break;
      }
      default: {  // a port drop of any counted cause
        static constexpr net::DropCause kCauses[] = {
            net::DropCause::kQueueFull, net::DropCause::kLinkDown,
            net::DropCause::kLossModel, net::DropCause::kCorrupt,
            net::DropCause::kLinkDownTx};
        const net::DropCause cause = kCauses[rng.below(5)];
        p.mon.on_drop(p.mon.switch_id(), static_cast<net::PortId>(port),
                      frame(500, bucket), cause);
        p.ref.drop(port, bucket, cause);
        break;
      }
    }
  };

  // One window on every switch, each event at its own instant.
  auto run_window = [&](Window kind, sim::Time len) {
    const sim::Time start = sim.now();
    for (auto& p : sw) {
      const std::uint64_t events = kind == Window::kIdle ? 0 : rng.below(40);
      for (std::uint64_t e = 0; e < events; ++e) {
        if (len > 0) sim.run_until(start + 1 + rng.below(len - 1));
        const std::uint32_t bucket =
            static_cast<std::uint32_t>(rng.below(kLabelBuckets));
        const std::size_t port = rng.below(kPorts);
        switch (kind) {
          case Window::kTraffic:
            traffic_event(*p, sim.now());
            break;
          case Window::kDropOnly:
            p->mon.on_drop(p->mon.switch_id(), static_cast<net::PortId>(port),
                           frame(300, bucket), net::DropCause::kQueueFull);
            p->ref.drop(port, bucket, net::DropCause::kQueueFull);
            break;
          case Window::kNoRoute:
            p->mon.on_drop(p->mon.switch_id(), static_cast<net::PortId>(port),
                           frame(300, bucket), net::DropCause::kNoRoute);
            p->ref.drop(port, bucket, net::DropCause::kNoRoute);
            break;
          case Window::kIdle:
            break;
        }
      }
    }
    sim.run_until(start + len);
    flush();
  };

  for (int phase = 0; phase < 12; ++phase) {
    // A busy stretch: traffic with drop-only, no-route-only, idle and
    // zero-length windows mixed in.
    const std::uint64_t busy = 10 + rng.below(30);
    for (std::uint64_t w = 0; w < busy; ++w) {
      const std::uint64_t pick = rng.below(10);
      const Window kind = pick < 5    ? Window::kTraffic
                          : pick == 5 ? Window::kDropOnly
                          : pick == 6 ? Window::kNoRoute
                                      : Window::kIdle;
      // One window in eight closes at the instant the previous one did
      // (collect_now at a flush instant): dt == 0.
      const sim::Time len = rng.below(8) == 0 ? 0 : kWindow;
      run_window(len == 0 ? Window::kIdle : kind, len);
    }
    // An idle stretch. Two of them outlast the util EWMA's ~2,080
    // windows to the smallest denormal, so every port settles, with a
    // zero-length window among the first hundred, while the HWM of a
    // port left holding frames has already settled and the EWMA has not.
    const std::uint64_t idle =
        phase % 6 == 4 ? 2300 + rng.below(200) : rng.below(60);
    const std::uint64_t zero_at = rng.below(100);
    for (std::uint64_t w = 0; w < idle; ++w) {
      run_window(Window::kIdle, w == zero_at ? 0 : kWindow);
    }
    if (HasFailure()) return;  // the first difference says it all
  }
  // Drain the control plane.
  round += 8;
  deliver_due();
  ASSERT_TRUE(wire.empty());
  EXPECT_EQ(collector_diff(), "");
  EXPECT_EQ(got.health_json(sim.now()), want.health_json(sim.now()));

  // The control plane did what the test claims, and ports ran hot.
  std::uint64_t duplicates = 0, reordered = 0, lost = 0;
  for (std::uint32_t id = 0; id < kSwitches; ++id) {
    duplicates += got.accounting(id)->duplicates;
    reordered += got.accounting(id)->reordered;
    lost += got.accounting(id)->lost;
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(lost, 0u);
  EXPECT_NE(got.health_json(sim.now()).find("\"streak\""), std::string::npos);
}

}  // namespace
}  // namespace presto::telemetry::fabric
