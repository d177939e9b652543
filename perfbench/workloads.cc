#include "workloads.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "core/flowcell_engine.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "sim/digest.h"
#include "workload/apps.h"
#include "workload/openloop/generator.h"
#include "workload/patterns.h"

namespace perfbench {
namespace {

using namespace presto;
namespace ol = workload::openloop;

constexpr std::uint64_t kMiceMaxBytes = 100'000;

// ---------------------------------------------------------------------------
// Forwarders that put spans around calls into the datapath's public seams.

/// Stands in as a TxPort's peer and forwards to the real Switch or Host,
/// timing its receive(). Switch forwarders also sample the event backlog.
class TimedSink final : public net::PacketSink {
 public:
  TimedSink(net::PacketSink& target, Layer layer, Tracer& tr,
            const sim::Simulation& sim, std::uint64_t& pending_max)
      : target_(target), layer_(layer), tr_(tr), sim_(sim),
        pending_max_(pending_max) {}

  void receive(net::Packet p, net::PortId in_port) override {
    if (layer_ == Layer::kSwitchRx) {
      pending_max_ = std::max<std::uint64_t>(pending_max_, sim_.pending());
    }
    tr_.begin(layer_);
    target_.receive(std::move(p), in_port);
    tr_.end();
  }

 private:
  net::PacketSink& target_;
  Layer layer_;
  Tracer& tr_;
  const sim::Simulation& sim_;
  std::uint64_t& pending_max_;
};

/// Rewires every port of a built testbed through TimedSinks. Each port's
/// peer follows from the fabric link records and the host attachments.
class SinkShim {
 public:
  SinkShim(harness::Experiment& ex, Tracer& tr, std::uint64_t& pending_max) {
    net::Topology& topo = ex.topo();
    switches_.reserve(topo.switch_count());
    hosts_.reserve(topo.host_count());
    for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
      switches_.emplace_back(topo.get_switch(s), Layer::kSwitchRx, tr,
                             ex.sim(), pending_max);
    }
    for (net::HostId h = 0; h < topo.host_count(); ++h) {
      hosts_.emplace_back(ex.host(h), Layer::kHostRx, tr, ex.sim(),
                          pending_max);
    }
    std::vector<std::vector<bool>> wired(topo.switch_count());
    for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
      wired[s].assign(topo.get_switch(s).port_count(), false);
    }
    for (const net::FabricLink& fl : topo.fabric_links()) {
      topo.get_switch(fl.leaf).port(fl.leaf_port)
          .connect(&switches_[fl.spine], fl.spine_port);
      topo.get_switch(fl.spine).port(fl.spine_port)
          .connect(&switches_[fl.leaf], fl.leaf_port);
      wired[fl.leaf][static_cast<std::size_t>(fl.leaf_port)] = true;
      wired[fl.spine][static_cast<std::size_t>(fl.spine_port)] = true;
    }
    for (net::HostId h = 0; h < topo.host_count(); ++h) {
      const net::HostAttachment& at = topo.host(h);
      topo.get_switch(at.edge_switch).port(at.edge_port)
          .connect(&hosts_[h], 0);
      ex.host(h).uplink().connect(&switches_[at.edge_switch], at.edge_port);
      wired[at.edge_switch][static_cast<std::size_t>(at.edge_port)] = true;
    }
    for (const std::vector<bool>& ports : wired) {
      if (std::find(ports.begin(), ports.end(), false) != ports.end()) {
        throw std::logic_error("trace shim: a switch port has no known peer");
      }
    }
  }

 private:
  std::vector<TimedSink> switches_;
  std::vector<TimedSink> hosts_;
};

/// Forwarding WireTap in front of the scenario's Checker.
class TimedTap final : public net::WireTap {
 public:
  TimedTap(net::WireTap& target, Tracer& tr) : target_(target), tr_(tr) {}

  void on_port_enqueue(std::uint32_t node, net::PortId port,
                       const net::Packet& p) override {
    Span s(&tr_, Layer::kTap);
    target_.on_port_enqueue(node, port, p);
  }
  void on_drop(std::uint32_t node, net::PortId port, const net::Packet& p,
               net::TapDropCause cause) override {
    ++drops[static_cast<std::size_t>(cause)];
    Span s(&tr_, Layer::kTap);
    target_.on_drop(node, port, p, cause);
  }
  void on_switch_rx(net::SwitchId sw, net::PortId in_port,
                    const net::Packet& p) override {
    Span s(&tr_, Layer::kTap);
    target_.on_switch_rx(sw, in_port, p);
  }
  void on_host_rx(net::HostId host, const net::Packet& p) override {
    Span s(&tr_, Layer::kTap);
    target_.on_host_rx(host, p);
  }

  /// Drops seen, by cause.
  std::array<std::uint64_t,
             static_cast<std::size_t>(net::TapDropCause::kHostRing) + 1>
      drops{};

 private:
  net::WireTap& target_;
  Tracer& tr_;
};

/// FlowGenerator decorator: times next().
class TimedGenerator final : public ol::FlowGenerator {
 public:
  TimedGenerator(ol::FlowGenerator& inner, Tracer* tr)
      : inner_(inner), tr_(tr) {}

  bool next(ol::FlowEvent* out) override {
    Span s(tr_, Layer::kFlowNext);
    return inner_.next(out);
  }

 private:
  ol::FlowGenerator& inner_;
  Tracer* tr_;
};

// ---------------------------------------------------------------------------
// Counts from public accessors.

void add_testbed_counts(harness::Experiment& ex, LayerCounts& c) {
  net::Topology& topo = ex.topo();
  c.events += ex.sim().executed();
  c.switch_enqueued += topo.total_enqueued();
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    host::Host& host = ex.host(h);
    c.ring_drops += host.ring_drops();
    host.for_each_sender([&c](tcp::TcpSender& s) {
      c.retx_fast += s.stats().fast_retransmits;
      c.rto += s.stats().timeouts;
      c.retx_bytes += s.stats().retransmitted_bytes;
      c.dup_acks += s.stats().dup_acks;
      c.acked_bytes += s.acked_bytes();
    });
    if (const auto* fc = dynamic_cast<const core::FlowcellEngine*>(host.lb())) {
      c.cells += fc->flowcells_created();
    }
  }
  if (controller::ControlLoop* loop = ex.control_loop()) {
    c.loop_ticks += loop->ticks();
    c.loop_pushes += loop->pushes();
  }
  c.recomputes += ex.ctl().schedule_recomputes();
  if (telemetry::fabric::FabricPlane* plane = ex.fabric_plane()) {
    c.reports += plane->reports_sent();
    c.report_drops += plane->reports_dropped();
  }
}

/// Counts only the telemetry registry has (cfg.telemetry.metrics = true).
void add_registry_counts(harness::Experiment& ex, LayerCounts& c) {
  const telemetry::Snapshot snap = ex.telemetry_snapshot();
  auto get = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.drop_queue_full += get("net.port.dropped.queue_full");
  c.drop_loss_model += get("net.port.dropped.loss_model");
  c.drop_link_down += get("net.port.dropped.link_down");
  c.drop_no_route += get("net.switch.dropped.no_route");
  c.gro_pushed += get("offload.gro.pushed");
  c.gro_merges += get("offload.gro.merges");
  c.gro_holds += get("offload.gro.holds");
  c.gro_flush_timeout += get("offload.gro.flush.timeout");
  c.suspicion_skips += get("core.flowcell.suspicion.skips");
  c.fault_actions += get("fault.events");
}

/// Fault actions a plan arms (a flap is `count` down/up pairs).
std::uint64_t fault_actions(const std::string& plan) {
  if (plan.empty()) return 0;
  std::uint64_t n = 0;
  for (const fault::FaultEvent& ev : fault::FaultPlan::parse(plan).events) {
    n += ev.kind == fault::FaultKind::kLinkFlap ? 2 * ev.count : 1;
  }
  return n;
}

std::uint64_t receiver_bytes(harness::Experiment& ex) {
  std::uint64_t total = 0;
  for (net::HostId h = 0; h < ex.topo().host_count(); ++h) {
    ex.host(h).for_each_receiver(
        [&total](tcp::TcpReceiver& r) { total += r.delivered(); });
  }
  return total;
}

void run_slice(harness::Experiment& ex, sim::Time until, Tracer* tr) {
  Span s(tr, Layer::kSimRun);
  ex.sim().run_until(until);
}

/// Timing slice of the single-testbed workloads, in simulated time.
constexpr sim::Time kTimingSlice = 10 * sim::kMillisecond;

/// Runs the testbed to `until` in kTimingSlice steps, one lap each.
void run_timed(harness::Experiment& ex, sim::Time until, Tracer* tr,
               LapTimer& laps) {
  sim::Time t = ex.sim().now();
  while (t < until) {
    t = std::min(until, t + kTimingSlice);
    run_slice(ex, t, tr);
    laps.lap();
  }
}

void fold_sketch(sim::Digest& d, const stats::DDSketch& s) {
  d.mix(s.count());
  for (double p : {50.0, 99.0, 99.9}) d.mix_double(s.percentile(p));
}

void add_fct(RepResult& r, Tracer* tr, double ms, std::uint64_t bytes) {
  Span s(tr, Layer::kSketchAdd);
  r.fct_ms.add(ms);
  if (bytes < kMiceMaxBytes) r.mice_fct_ms.add(ms);
}

// ---------------------------------------------------------------------------
// openloop_ws: fig20's pinned point.

constexpr sim::Time kOlWarmup = 50 * sim::kMillisecond;
constexpr sim::Time kOlMeasure = 200 * sim::kMillisecond;
constexpr sim::Time kOlDrain = 200 * sim::kMillisecond;
constexpr sim::Time kOlIssueUntil = kOlWarmup + kOlMeasure;
constexpr sim::Time kIncastInterval = 20 * sim::kMillisecond;
constexpr sim::Time kOlDrainCap = kOlIssueUntil + 5 * sim::kSecond;

harness::ExperimentConfig openloop_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.seed = seed;
  cfg.telemetry.metrics = true;
  return cfg;
}

std::unique_ptr<ol::FlowGenerator> openloop_generator(
    const harness::ExperimentConfig& cfg, std::uint64_t seed) {
  const std::uint32_t hosts = cfg.leaves * cfg.hosts_per_leaf;
  ol::OpenLoopGenerator::Config main_cfg;
  main_cfg.sizes = &ol::EmpiricalCdf::websearch();
  main_cfg.arrival.load = 0.7;
  main_cfg.arrival.link_rate_bps = cfg.link_rate_bps;
  main_cfg.hosts = hosts;
  main_cfg.hosts_per_rack = cfg.hosts_per_leaf;
  main_cfg.seed = seed;
  ol::IncastGenerator::Config in_cfg;
  in_cfg.hosts = hosts;
  in_cfg.fanin = 8;
  in_cfg.bytes_each = 20 * 1024;
  in_cfg.interval = kIncastInterval;
  in_cfg.start = kIncastInterval / 2;
  in_cfg.seed = seed + 1;
  std::vector<std::unique_ptr<ol::FlowGenerator>> tenants;
  tenants.push_back(std::make_unique<ol::OpenLoopGenerator>(main_cfg));
  tenants.push_back(std::make_unique<ol::IncastGenerator>(in_cfg));
  return std::make_unique<ol::MixGenerator>(std::move(tenants));
}

/// One open-loop testbed. Constructing it is the build: the experiment,
/// the arrival stream, and the first scheduled arrival. It follows
/// harness::run_openloop's issue/pump logic, which builds its experiment
/// internally and runs it in one run_until call, leaving no seam for the
/// build span, the timing slices or the forwarding sinks.
class OpenLoopRun {
 public:
  OpenLoopRun(std::uint64_t seed, Tracer* tr, LapTimer& laps, RepResult& out)
      : tr_(tr), laps_(laps), out_(out), ex_(openloop_config(seed)),
        mix_(openloop_generator(ex_.config(), seed)), gen_(*mix_, tr) {
    if (gen_.next(&pending_) && pending_.at < kOlIssueUntil) {
      ex_.sim().schedule_at(pending_.at, [this] { pump(); });
    }
  }
  OpenLoopRun(const OpenLoopRun&) = delete;
  OpenLoopRun& operator=(const OpenLoopRun&) = delete;

  harness::Experiment& experiment() { return ex_; }

  void run() {
    run_timed(ex_, kOlWarmup, tr_, laps_);
    const std::uint64_t d0 = receiver_bytes(ex_);
    run_timed(ex_, kOlIssueUntil, tr_, laps_);
    const std::uint64_t d1 = receiver_bytes(ex_);
    // Drain until every flow issued in the window has completed (the
    // backlog on the per-pair channels outlives the fixed drain at 0.7
    // load); a flow still open at the cap is a failed operation.
    run_timed(ex_, kOlIssueUntil + kOlDrain, tr_, laps_);
    while (window_done_ < window_issued_ && ex_.sim().now() < kOlDrainCap) {
      run_timed(ex_, ex_.sim().now() + kTimingSlice, tr_, laps_);
    }

    const std::uint32_t servers =
        static_cast<std::uint32_t>(ex_.servers().size());
    out_.goodput_gbps = 8.0 * static_cast<double>(d1 - d0) /
                        sim::to_seconds(kOlMeasure) / 1e9 / servers;
    out_.attempted += window_issued_;
    out_.failed += window_issued_ - window_done_;
    out_.flows += done_;
    out_.scenarios += 1;
    LayerCounts& c = out_.counts;
    add_testbed_counts(ex_, c);
    add_registry_counts(ex_, c);
    c.flows_offered += offered_;

    sim::Digest d;
    d.mix(ex_.sim().executed());
    d.mix(offered_);
    d.mix(done_);
    d.mix(window_issued_);
    d.mix(window_done_);
    fold_sketch(d, out_.fct_ms);
    fold_sketch(d, out_.mice_fct_ms);
    d.mix(d1 - d0);
    d.mix(c.loop_pushes);
    out_.digest = d.value();
  }

 private:
  using ChanKey = std::tuple<net::HostId, net::HostId, std::uint16_t>;

  // Flows between one (src, dst, tenant) queue in order on one long-lived
  // RPC channel, and each FCT runs from issue, so head-of-line wait counts.
  void issue(const ol::FlowEvent& ev) {
    ++offered_;
    const sim::Time now = ex_.sim().now();
    const bool in_window = now >= kOlWarmup && now < kOlIssueUntil;
    if (in_window) ++window_issued_;
    const ChanKey key{ev.src, ev.dst, ev.tenant};
    auto it = chans_.find(key);
    if (it == chans_.end()) {
      it = chans_.emplace(key, &ex_.open_rpc(ev.src, ev.dst)).first;
    }
    it->second->issue(ev.bytes, [this, bytes = ev.bytes,
                                 in_window](sim::Time fct) {
      ++done_;
      if (!in_window) return;
      ++window_done_;
      add_fct(out_, tr_, sim::to_millis(fct), bytes);
    });
  }

  // Holds exactly one pending arrival; issuing it pulls the next.
  void pump() {
    issue(pending_);
    while (gen_.next(&pending_)) {
      if (pending_.at >= kOlIssueUntil) return;
      if (pending_.at > ex_.sim().now()) {
        ex_.sim().schedule_at(pending_.at, [this] { pump(); });
        return;
      }
      issue(pending_);
    }
  }

  Tracer* tr_;
  LapTimer& laps_;
  RepResult& out_;
  harness::Experiment ex_;
  std::unique_ptr<ol::FlowGenerator> mix_;
  TimedGenerator gen_;
  ol::FlowEvent pending_;
  std::map<ChanKey, workload::RpcChannel*> chans_;
  std::uint64_t offered_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t window_issued_ = 0;
  std::uint64_t window_done_ = 0;
};

// ---------------------------------------------------------------------------
// gray_ctl: fig21's gray cell on the asymmetric Clos, closed loop.

constexpr sim::Time kGrayOnset = 150 * sim::kMillisecond;
constexpr sim::Time kGrayHeal = 450 * sim::kMillisecond;
constexpr sim::Time kGrayEnd = 700 * sim::kMillisecond;
constexpr sim::Time kGrayDrainCap = kGrayEnd + 2 * sim::kSecond;
constexpr std::uint64_t kMouseBytes = 4096;

harness::ExperimentConfig gray_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.topology = net::TopologyKind::kAsymClos;
  cfg.seed = seed;
  cfg.telemetry.metrics = true;
  // Bursty Gilbert-Elliott loss on leaf0<->spine0 (leaf 0 is switch
  // `spines`: make_clos creates spines first), never reported as a fault.
  const std::string leaf0 = std::to_string(cfg.spines);
  cfg.fault_plan = "degrade@" + std::to_string(kGrayOnset) + "ns leaf=" +
                   leaf0 +
                   " spine=0 group=0 loss_bad=0.35 p_gb=0.02 p_bg=0.10;heal@" +
                   std::to_string(kGrayHeal) + "ns leaf=" + leaf0 +
                   " spine=0 group=0";
  cfg.control_loop.enabled = true;
  cfg.control_loop.period = 5 * sim::kMillisecond;
  cfg.control_loop.gain = 0.5;
  cfg.control_loop.max_delta = 0.25;
  cfg.control_loop.deadband = 0.02;
  cfg.control_loop.min_weight = 0.02;
  cfg.control_loop.horizon = 4;
  return cfg;
}

class GrayRun {
 public:
  GrayRun(std::uint64_t seed, Tracer* tr, LapTimer& laps, RepResult& out)
      : tr_(tr), laps_(laps), out_(out), ex_(gray_config(seed)) {
    const auto pairs = workload::stride_pairs(16, 4);
    for (const auto& [s, d] : pairs) {
      elephants_.push_back(&ex_.add_elephant(s, d, 0));
    }
    // 4 KB single-flowcell ping-pong mice on every pair, every 1 ms.
    const sim::Time interval = sim::kMillisecond;
    std::size_t i = 0;
    for (const auto& [s, d] : pairs) {
      workload::RpcChannel& rpc = ex_.open_rpc(s, d);
      mice_channels_.push_back(&rpc);
      auto app = std::make_unique<workload::PeriodicRpcApp>(
          ex_.sim(), rpc, kMouseBytes, interval,
          interval * static_cast<sim::Time>(i + 1) /
              static_cast<sim::Time>(pairs.size() + 1),
          kGrayHeal, /*ping_pong=*/true);
      app->set_measure_from(kGrayOnset);
      app->set_on_sample([this](sim::Time issued_at, sim::Time fct) {
        ++done_;
        if (issued_at < kGrayOnset) return;
        ++window_done_;
        add_fct(out_, tr_, sim::to_millis(fct), kMouseBytes);
      });
      mice_.push_back(std::move(app));
      ++i;
    }
  }
  GrayRun(const GrayRun&) = delete;
  GrayRun& operator=(const GrayRun&) = delete;

  harness::Experiment& experiment() { return ex_; }

  void run() {
    run_timed(ex_, kGrayOnset, tr_, laps_);
    const std::uint64_t d0 = elephant_bytes();
    run_timed(ex_, kGrayHeal, tr_, laps_);
    const std::uint64_t d1 = elephant_bytes();
    // Mice stop at heal (fig21 keeps them to run end); only those issued
    // after onset are measured. A mouse still open at the end (an RTO is
    // 200 ms) gets slices of grace up to the cap.
    run_timed(ex_, kGrayEnd, tr_, laps_);
    while (outstanding() > 0 && ex_.sim().now() < kGrayDrainCap) {
      run_timed(ex_, ex_.sim().now() + kTimingSlice, tr_, laps_);
    }
    const std::uint64_t outstanding = this->outstanding();
    out_.goodput_gbps = 8.0 * static_cast<double>(d1 - d0) /
                        sim::to_seconds(kGrayHeal - kGrayOnset) / 1e9 /
                        static_cast<double>(elephants_.size());
    out_.attempted += window_done_ + outstanding;
    out_.failed += outstanding;
    out_.flows += done_;
    out_.scenarios += 1;
    LayerCounts& c = out_.counts;
    add_testbed_counts(ex_, c);
    add_registry_counts(ex_, c);
    c.flows_offered += done_ + outstanding;

    sim::Digest d;
    d.mix(ex_.sim().executed());
    d.mix(done_ + outstanding);
    d.mix(done_);
    d.mix(window_done_);
    fold_sketch(d, out_.fct_ms);
    d.mix(d1 - d0);
    d.mix(c.loop_pushes);
    d.mix(c.loop_ticks);
    out_.digest = d.value();
  }

 private:
  std::uint64_t outstanding() const {
    std::uint64_t n = 0;
    for (const workload::RpcChannel* ch : mice_channels_) {
      n += ch->outstanding();
    }
    return n;
  }

  std::uint64_t elephant_bytes() const {
    std::uint64_t total = 0;
    for (const workload::ElephantApp* e : elephants_) total += e->delivered();
    return total;
  }

  Tracer* tr_;
  LapTimer& laps_;
  RepResult& out_;
  harness::Experiment ex_;
  std::vector<workload::ElephantApp*> elephants_;
  std::vector<workload::RpcChannel*> mice_channels_;
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> mice_;
  std::uint64_t done_ = 0;
  std::uint64_t window_done_ = 0;
};

/// A workload whose rep is one testbed of type `Run`: constructing a Run
/// is the build, Run::run() the rest of the rep.
template <typename Run>
class SingleTestbed final : public Workload {
 public:
  explicit SingleTestbed(std::uint64_t seed) : seed_(seed) {}

  double timed_build(std::size_t) override {
    RepResult scratch;
    LapTimer laps;
    const double t0 = thread_cpu_seconds();
    auto run = std::make_unique<Run>(seed_, nullptr, laps, scratch);
    const double t1 = thread_cpu_seconds();
    return t1 - t0;
  }

  RepResult rep(Tracer* tr) override {
    RepResult r;
    LapTimer laps;
    std::optional<SinkShim> shim;  // outlives the testbed it rewires
    std::unique_ptr<Run> run;
    {
      Span b(tr, Layer::kBuild);
      run = std::make_unique<Run>(seed_, tr, laps, r);
    }
    if (tr != nullptr) {
      shim.emplace(run->experiment(), *tr, r.counts.pending_max);
    }
    laps.lap();
    run->run();
    r.counts.sketch_buckets = r.fct_ms.bucket_count();
    run.reset();
    r.laps = laps.finish();
    return r;
  }

 private:
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// fuzz_check: generated scenarios, every oracle armed, run to cap, audited.

class FuzzCheck final : public Workload {
 public:
  explicit FuzzCheck(std::vector<check::Scenario> scenarios)
      : scenarios_(std::move(scenarios)) {}

  double timed_build(std::size_t i) override {
    const check::Scenario& sc = scenarios_[i % scenarios_.size()];
    const double t0 = thread_cpu_seconds();
    auto run = std::make_unique<check::ScenarioRun>(sc);
    const double t1 = thread_cpu_seconds();
    return t1 - t0;
  }

  RepResult rep(Tracer* tr) override {
    RepResult r;
    LapTimer laps;
    sim::Digest d;
    std::uint64_t delivered = 0;
    sim::Time capped = 0;
    for (const check::Scenario& sc : scenarios_) {
      // Declared before the run so they outlive the testbed they observe.
      std::optional<TimedTap> tap;
      std::optional<SinkShim> shim;
      std::uint64_t seg_pushed = 0, seg_merges = 0;
      std::unique_ptr<check::ScenarioRun> run;
      {
        Span b(tr, Layer::kBuild);
        run = std::make_unique<check::ScenarioRun>(sc);
      }
      harness::Experiment& ex = run->experiment();
      if (tr != nullptr) {
        tap.emplace(run->checker(), *tr);
        for (net::SwitchId s = 0; s < ex.topo().switch_count(); ++s) {
          ex.topo().get_switch(s).set_tap(&*tap);
        }
        for (net::HostId h = 0; h < ex.topo().host_count(); ++h) {
          ex.host(h).set_tap(&*tap);
          ex.host(h).add_segment_tap(
              [&seg_pushed, &seg_merges](const offload::Segment& s) {
                ++seg_pushed;
                seg_merges += s.pkt_count - 1;
              });
        }
        shim.emplace(ex, *tr, r.counts.pending_max);
      }

      // Straight to the cap, as run_scenario() does.
      run_slice(ex, sc.cap, tr);
      check::RunOutcome out;
      {
        Span f(tr, Layer::kFinish);
        out = run->finish();
      }

      const bool good = out.ok && out.drained;
      r.attempted += 1;
      r.failed += good ? 0 : 1;
      r.flows += run->completed();
      r.scenarios += 1;
      delivered += run->app_delivered_bytes();
      capped += sc.cap;
      LayerCounts& c = r.counts;
      add_testbed_counts(ex, c);
      c.flows_offered += run->expected();
      c.fault_actions += fault_actions(sc.fault_plan());
      c.violations += out.total_violations;
      c.gro_pushed += seg_pushed;
      c.gro_merges += seg_merges;
      if (tap) {
        using C = net::TapDropCause;
        const auto& n = tap->drops;
        c.drop_queue_full += n[static_cast<std::size_t>(C::kQueueFull)];
        c.drop_link_down += n[static_cast<std::size_t>(C::kLinkDown)] +
                            n[static_cast<std::size_t>(C::kLinkDownTx)];
        c.drop_loss_model += n[static_cast<std::size_t>(C::kLossModel)];
        c.drop_no_route += n[static_cast<std::size_t>(C::kNoRoute)];
      }

      d.mix(sc.seed);
      d.mix(ex.sim().executed());
      d.mix(out.frames_delivered);
      d.mix(out.ok ? 1 : 0);
      d.mix(out.drained ? 1 : 0);
      run.reset();
      laps.lap();  // one timing slice per scenario, teardown included
    }
    d.mix(delivered);
    r.digest = d.value();
    r.goodput_gbps = 8.0 * static_cast<double>(delivered) /
                     sim::to_seconds(capped) / 1e9;
    r.laps = laps.finish();
    return r;
  }

 private:
  std::vector<check::Scenario> scenarios_;
};

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"openloop_ws", 6100, 0xb10292dff3ac6792ULL, 5.0},
      {"gray_ctl", 9500, 0x4e05fabeac444bb0ULL, 4.0},
      {"fuzz_check", 0, 0xe896a6ea050dfb28ULL, 7.5},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workload_specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::unique_ptr<Workload> make_fuzz_workload(
    std::vector<check::Scenario> scenarios) {
  return std::make_unique<FuzzCheck>(std::move(scenarios));
}

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        std::uint64_t seed) {
  const std::string name = spec.name;
  if (name == "openloop_ws") {
    return std::make_unique<SingleTestbed<OpenLoopRun>>(seed);
  }
  if (name == "gray_ctl") return std::make_unique<SingleTestbed<GrayRun>>(seed);
  std::vector<check::Scenario> block;
  block.reserve(kFuzzBlock);
  for (std::uint32_t i = 0; i < kFuzzBlock; ++i) {
    block.push_back(check::Scenario::generate(seed + i));
  }
  return make_fuzz_workload(std::move(block));
}

}  // namespace perfbench
