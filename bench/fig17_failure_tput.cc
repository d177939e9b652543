// Figure 17: Presto throughput through the three failure-handling stages —
// symmetry (all links up), failover (hardware fast failover around the dead
// S1-L1 link), and weighted (controller pushes pruned/weighted schedules) —
// for four workloads: L1->L4, L4->L1, stride(8), random bijection.
//
// Paper result: Presto sustains reasonable throughput in every stage; the
// failover and weighted stages lose some throughput because the topology is
// no longer non-blocking (L1 has only 3 live uplinks).

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

namespace {

std::vector<workload::HostPair> workload_pairs(const std::string& name,
                                               sim::Rng& rng) {
  if (name == "L1->L4") {
    return {{0, 12}, {1, 13}, {2, 14}, {3, 15}};
  }
  if (name == "L4->L1") {
    return {{12, 0}, {13, 1}, {14, 2}, {15, 3}};
  }
  if (name == "Stride") return workload::stride_pairs(16, 8);
  auto pod = [](net::HostId h) { return net::SwitchId{h / 4}; };
  return workload::random_bijection(16, pod, rng);
}

struct StageTputs {
  double symmetry = 0, failover = 0, weighted = 0;
  harness::RunResult rr;  ///< the seed's telemetry, for the JSON point
};

StageTputs run_failure(const std::string& wl, std::uint64_t seed,
                       bool telemetry) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.seed = seed;
  cfg.telemetry.metrics = telemetry;
  cfg.controller.failover_detect_delay = 5 * sim::kMillisecond;
  cfg.controller.controller_react_delay = 200 * sim::kMillisecond;
  harness::Experiment ex(cfg);
  sim::Rng rng = ex.fork_rng();

  std::vector<workload::ElephantApp*> els;
  for (const auto& [s, d] : workload_pairs(wl, rng)) {
    els.push_back(&ex.add_elephant(s, d, 0));
  }

  const sim::Time warmup = scaled(100 * sim::kMillisecond);
  const sim::Time fail_at = warmup + scaled(100 * sim::kMillisecond);
  const auto tl = ex.ctl().schedule_link_failure(
      ex.topo().leaves()[0], ex.topo().spines()[0], 0, fail_at);

  auto window_tput = [&](sim::Time from, sim::Time to) {
    ex.sim().run_until(from);
    std::vector<std::uint64_t> base;
    for (auto* e : els) base.push_back(e->delivered());
    ex.sim().run_until(to);
    double sum = 0;
    for (std::size_t i = 0; i < els.size(); ++i) {
      sum += 8.0 * static_cast<double>(els[i]->delivered() - base[i]) /
             sim::to_seconds(to - from) / 1e9;
    }
    return sum / static_cast<double>(els.size());
  };

  StageTputs out;
  out.symmetry = window_tput(warmup, tl.failed);
  // Failover: after local + ingress reroutes, before the weighted push.
  out.failover = window_tput(tl.failover + scaled(5 * sim::kMillisecond),
                             tl.weighted);
  out.weighted = window_tput(tl.weighted + scaled(10 * sim::kMillisecond),
                             tl.weighted + scaled(200 * sim::kMillisecond));
  out.rr.telemetry = ex.telemetry_snapshot();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("fig17_failure_tput", argc, argv);
  json.note_run_config(seed_count(), time_scale());
  std::printf("Figure 17: Presto throughput by failure stage (Gbps)\n");
  std::printf("%-12s %10s %10s %10s\n", "workload", "Symmetry", "Failover",
              "Weighted");
  for (const std::string wl : {"L1->L4", "L4->L1", "Stride", "Bijection"}) {
    // Seed replicas in parallel, merged in seed order.
    std::vector<StageTputs> runs = harness::run_indexed(
        seed_count(), thread_count(),
        [&](int s) { return run_failure(wl, 9000 + 7 * s, json.enabled()); });
    StageTputs avg;
    harness::SweepResult agg;
    for (StageTputs& r : runs) {
      avg.symmetry += r.symmetry / seed_count();
      avg.failover += r.failover / seed_count();
      avg.weighted += r.weighted / seed_count();
      agg.telemetry.merge(r.rr.telemetry);
      agg.runs.push_back(std::move(r.rr));
    }
    if (json.enabled()) {
      agg.avg_tput_gbps = avg.symmetry;
      harness::ExperimentConfig cfg;
      cfg.scheme = harness::Scheme::kPresto;
      json.set_point(wl, {{"symmetry_gbps", avg.symmetry},
                          {"failover_gbps", avg.failover},
                          {"weighted_gbps", avg.weighted}});
      json.record(cfg, agg);
    }
    std::printf("%-12s %10.2f %10.2f %10.2f\n", wl.c_str(), avg.symmetry,
                avg.failover, avg.weighted);
    std::fflush(stdout);
  }
  return 0;
}
