// Figure 21 (beyond-paper): proactive-static vs reactive-closed-loop
// re-weighting under fabric disturbances (DESIGN.md §17).
//
// Presto's controller is proactive: weights are computed from topology and
// failure events only, so a gray link (bursty Gilbert-Elliott loss without a
// down event), a rolling switch upgrade, or a mid-run traffic shift leaves
// the static schedule spraying flowcells into the damage. The closed loop
// feeds the fabric telemetry plane's per-switch reports into a periodic
// proportional + predictive re-weighting pass that floors the sick tree's
// weight within a few periods — and re-converges to uniform after the heal.
//
// Each cell runs stride elephants plus periodic 4 KB mice RPCs and reports
// mice FCT percentiles plus per-elephant goodput over the disturbance
// window. The headline cell is gray@asym: static keeps ~1/spines of the
// cells on a ~35%-burst-loss tree (RTO-bound mice tail), closed steers off
// it after the first telemetry deltas.
//
// `--smoke` shrinks to the gray disturbance on both topologies with short
// windows (the CI closed-loop leg); `--topo <id>` restricts topologies;
// `--history-out <base>` writes the closed-loop schedule history
// (`<base>.<topo>.<disturbance>.history.json`) for the first seed.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/digest.h"

using namespace presto;
using namespace presto::bench;

namespace {

struct Windows {
  sim::Time warmup = 0;       ///< goodput baseline starts here
  sim::Time disturb_at = 0;   ///< disturbance onset
  sim::Time disturb_end = 0;  ///< last heal/restore
  sim::Time run_end = 0;      ///< includes the post-heal recovery tail
};

struct Rep {
  stats::DDSketch fct_ms;       ///< mice FCT, disturbance window onward
  double window_gbps = 0;       ///< per-elephant goodput over the window
  std::uint64_t mice_timeouts = 0;
  std::uint64_t executed = 0;
  std::uint64_t ticks = 0;
  std::uint64_t pushes = 0;
  std::uint64_t damped = 0;
  std::string history;          ///< closed-loop schedule history JSON
  harness::RunResult rr;        ///< telemetry + fabric_health carriers
};

std::string plan_for(const std::string& disturbance, const Windows& w,
                     std::uint32_t spines) {
  const std::string t0 = std::to_string(w.disturb_at) + "ns";
  const std::string t1 = std::to_string(w.disturb_end) + "ns";
  // Spines are created before leaves (net::make_clos), so leaf 0 is switch
  // `spines`.
  const std::string leaf0 = std::to_string(spines);
  if (disturbance == "gray") {
    // Bursty Gilbert-Elliott loss on the leaf0<->spine0 link: ~1/6 of the
    // time in a 35%-loss bad state, never reported as a down event.
    return "degrade@" + t0 + " leaf=" + leaf0 +
           " spine=0 group=0 loss_bad=0.35 p_gb=0.02 p_bg=0.10;heal@" + t1 +
           " leaf=" + leaf0 + " spine=0 group=0";
  }
  if (disturbance == "upgrade") {
    // Rolling maintenance: spine 0 drains and returns, then spine 1.
    const sim::Time span = w.disturb_end - w.disturb_at;
    const std::string up0 = std::to_string(w.disturb_at + span / 3) + "ns";
    const std::string t2 = std::to_string(w.disturb_at + span / 2) + "ns";
    return "switch_down@" + t0 + " switch=0;switch_up@" + up0 +
           " switch=0;switch_down@" + t2 + " switch=1;switch_up@" + t1 +
           " switch=1";
  }
  return "";  // "shift" perturbs the workload, not the fabric
}

Rep run_cell(bool closed, net::TopologyKind topo,
             const std::string& disturbance, const Windows& w,
             std::uint64_t seed, bool telemetry, bool want_history) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.topology = topo;
  cfg.seed = seed;
  cfg.telemetry.metrics = telemetry;
  if (telemetry) {
    cfg.telemetry.fabric.monitors = true;
    cfg.telemetry.fabric.flush_period = scaled(5 * sim::kMillisecond);
  }
  // Goodput windows are sliced from the flight recorder's
  // app.delivered_bytes series (fig19 idiom): one continuous run.
  cfg.telemetry.timeseries = true;
  cfg.telemetry.sample_interval = scaled(500 * sim::kMicrosecond);
  cfg.fault_plan = plan_for(disturbance, w, cfg.spines);
  if (closed) {
    cfg.control_loop.enabled = true;
    cfg.control_loop.period = scaled(5 * sim::kMillisecond);
    cfg.control_loop.gain = 0.5;
    cfg.control_loop.max_delta = 0.25;
    cfg.control_loop.deadband = 0.02;
    cfg.control_loop.min_weight = 0.02;
    cfg.control_loop.horizon = 4;
  }

  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> els;
  const auto pairs = workload::stride_pairs(16, 4);
  for (const auto& [s, d] : pairs) els.push_back(&ex.add_elephant(s, d, 0));

  // Mice: single-flowcell 4 KB RPCs — one label each, so a mouse landing on
  // the sick tree eats the full loss burst (the p99 the loop rescues).
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> mice;
  std::vector<workload::RpcChannel*> mice_channels;
  const sim::Time mice_interval = scaled(1 * sim::kMillisecond);
  std::size_t i = 0;
  for (const auto& [s, d] : pairs) {
    auto& rpc = ex.open_rpc(s, d);
    mice_channels.push_back(&rpc);
    auto app = std::make_unique<workload::PeriodicRpcApp>(
        ex.sim(), rpc, 4096, mice_interval,
        /*start_at=*/mice_interval * (i + 1) / (pairs.size() + 1),
        /*stop_at=*/w.run_end, /*ping_pong=*/true);
    app->set_measure_from(w.disturb_at);
    mice.push_back(std::move(app));
    ++i;
  }

  if (disturbance == "shift") {
    // Mid-run traffic shift: a hot destination appears at disturb_at —
    // three extra elephants converge on host 0's rack.
    harness::Experiment* exp = &ex;
    ex.sim().schedule(w.disturb_at, [exp] {
      exp->add_elephant(5, 0, 0);
      exp->add_elephant(10, 0, 0);
      exp->add_elephant(15, 0, 0);
    });
  }

  ex.sim().run_until(w.run_end);

  const telemetry::TimeSeries* delivered =
      ex.sampler()->find("app.delivered_bytes");
  auto bytes_at = [delivered](sim::Time t) {
    double v = 0;
    for (const telemetry::SeriesPoint& p : delivered->points()) {
      if (p.at > t) break;
      v = p.value;
    }
    return v;
  };

  Rep out;
  out.window_gbps = 8.0 *
                    (bytes_at(w.disturb_end) - bytes_at(w.disturb_at)) /
                    sim::to_seconds(w.disturb_end - w.disturb_at) / 1e9 /
                    static_cast<double>(els.size());
  for (const auto& app : mice) {
    for (double fct_ns : app->fcts().values()) out.fct_ms.add(fct_ns / 1e6);
  }
  for (const workload::RpcChannel* ch : mice_channels) {
    out.mice_timeouts += ch->timeouts();
  }
  out.executed = ex.sim().executed();
  if (controller::ControlLoop* loop = ex.control_loop()) {
    out.ticks = loop->ticks();
    out.pushes = loop->pushes();
    out.damped = loop->damped();
    if (want_history) out.history = loop->history_json();
  }
  if (telemetry) {
    out.rr.telemetry = ex.telemetry_snapshot();
    out.rr.fabric_health_json = ex.fabric_health_json();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool have_topo = false;
  net::TopologyKind only_topo = net::TopologyKind::kClos;
  std::string history_base;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--topo") == 0 && i + 1 < argc) {
      if (!net::parse_topology_kind(argv[++i], &only_topo)) {
        std::fprintf(stderr, "unknown --topo: %s\n", argv[i]);
        return 2;
      }
      have_topo = true;
    } else if (std::strcmp(argv[i], "--history-out") == 0 && i + 1 < argc) {
      history_base = argv[++i];
    }
  }
  JsonReporter json("fig21_control_loop", argc, argv);
  json.note_run_config(seed_count(), time_scale());

  Windows w;
  w.warmup = scaled(100 * sim::kMillisecond);
  w.disturb_at = scaled(150 * sim::kMillisecond);
  w.disturb_end = scaled(450 * sim::kMillisecond);
  w.run_end = scaled(700 * sim::kMillisecond);
  std::vector<std::string> disturbances = {"gray", "upgrade", "shift"};
  if (smoke) {
    w.warmup = scaled(30 * sim::kMillisecond);
    w.disturb_at = scaled(50 * sim::kMillisecond);
    w.disturb_end = scaled(150 * sim::kMillisecond);
    w.run_end = scaled(200 * sim::kMillisecond);
    disturbances = {"gray"};
  }
  std::vector<net::TopologyKind> topos = {net::TopologyKind::kClos,
                                          net::TopologyKind::kAsymClos};
  if (have_topo) topos = {only_topo};

  // Folds every run's executed-event count: a cheap cross-rerun
  // determinism digest for the whole grid.
  sim::Digest digest;
  std::printf(
      "Figure 21: static vs closed-loop re-weighting under disturbances\n");
  std::printf("%-6s %-8s %-8s %9s %9s %9s %7s %7s %7s\n", "topo", "disturb",
              "variant", "p50_ms", "p99_ms", "win_gbps", "RTOs", "pushes",
              "damped");
  for (net::TopologyKind topo : topos) {
    const char* topo_id = net::topology_kind_id(topo);
    for (const std::string& disturbance : disturbances) {
      for (const bool closed : {false, true}) {
        const int n = seed_count();
        std::vector<Rep> reps =
            harness::run_indexed(n, thread_count(), [&](int s) {
              return run_cell(
                  closed, topo, disturbance, w,
                  9500 + 11 * static_cast<std::uint64_t>(s), json.enabled(),
                  /*want_history=*/closed && s == 0 && !history_base.empty());
            });

        stats::DDSketch fct;
        double gbps = 0;
        std::uint64_t rtos = 0, pushes = 0, damped = 0;
        harness::SweepResult agg;
        for (Rep& r : reps) {
          fct.merge(r.fct_ms);
          gbps += r.window_gbps / n;
          rtos += r.mice_timeouts;
          pushes += r.pushes;
          damped += r.damped;
          digest.mix(r.executed);
          agg.telemetry.merge(r.rr.telemetry);
          if (agg.fabric_health_json.empty() &&
              !r.rr.fabric_health_json.empty()) {
            agg.fabric_health_json = r.rr.fabric_health_json;
          }
        }
        const char* variant = closed ? "closed" : "static";
        if (closed && !history_base.empty() && !reps[0].history.empty()) {
          detail::write_text_file(history_base + "." + topo_id + "." +
                                      disturbance + ".history.json",
                                  reps[0].history);
        }
        std::printf("%-6s %-8s %-8s %9.3f %9.3f %9.2f %7llu %7llu %7llu\n",
                    topo_id, disturbance.c_str(), variant,
                    fct.percentile(50), fct.percentile(99), gbps,
                    static_cast<unsigned long long>(rtos),
                    static_cast<unsigned long long>(pushes),
                    static_cast<unsigned long long>(damped));
        std::fflush(stdout);
        if (json.enabled()) {
          agg.fct_ms = fct;
          agg.mice_timeouts = rtos;
          agg.avg_tput_gbps = gbps;
          harness::ExperimentConfig cfg;
          cfg.scheme = harness::Scheme::kPresto;
          cfg.topology = topo;
          cfg.control_loop.enabled = closed;
          json.set_point(std::string(variant) + "/" + disturbance + "@" +
                             topo_id,
                         {{"mice_p50_ms", fct.percentile(50)},
                          {"mice_p99_ms", fct.percentile(99)},
                          {"window_gbps", gbps},
                          {"mice_rtos", static_cast<double>(rtos)},
                          {"loop_pushes", static_cast<double>(pushes)},
                          {"loop_damped", static_cast<double>(damped)}});
          json.record(cfg, agg);
        }
      }
    }
  }
  std::printf("\ndeterminism digest %016llx\n",
              static_cast<unsigned long long>(digest.value()));
  return 0;
}
