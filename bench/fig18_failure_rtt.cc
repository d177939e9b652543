// Figure 18: Presto RTT CDFs in the symmetry / failover / weighted stages of
// the link-failure experiment, random bijection workload.
//
// Paper result: after the S1-L1 failure the network is no longer
// non-blocking, so the failover and weighted stages shift the RTT
// distribution right relative to symmetry.

#include <memory>

#include "bench_util.h"

using namespace presto;
using namespace presto::bench;

namespace {

/// One seed's RTT samples per failure stage.
struct StageRtts {
  stats::Samples symmetry, failover, weighted;
  telemetry::Snapshot telemetry;
};

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("fig18_failure_rtt", argc, argv);
  json.note_run_config(seed_count(), time_scale());
  stats::DDSketch symmetry, failover, weighted;
  telemetry::Snapshot telem;

  // Seed replicas in parallel, merged in seed order below.
  const std::vector<StageRtts> runs = harness::run_indexed(
      seed_count(), thread_count(), [&](int s) {
    StageRtts r;
    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    cfg.seed = 9100 + 7 * s;
    cfg.telemetry.metrics = json.enabled();
    cfg.controller.failover_detect_delay = 5 * sim::kMillisecond;
    cfg.controller.controller_react_delay = 200 * sim::kMillisecond;
    harness::Experiment ex(cfg);
    sim::Rng rng = ex.fork_rng();
    auto pod = [](net::HostId h) { return net::SwitchId{h / 4}; };
    const auto pairs = workload::random_bijection(16, pod, rng);

    std::vector<workload::ElephantApp*> els;
    for (const auto& [src, dst] : pairs) {
      els.push_back(&ex.add_elephant(src, dst, 0));
    }

    const sim::Time warmup = scaled(100 * sim::kMillisecond);
    const sim::Time fail_at = warmup + scaled(150 * sim::kMillisecond);
    const auto tl = ex.ctl().schedule_link_failure(
        ex.topo().leaves()[0], ex.topo().spines()[0], 0, fail_at);
    const sim::Time stop = tl.weighted + scaled(200 * sim::kMillisecond);

    // RTT probes tagged by the stage in which they were issued.
    std::vector<std::unique_ptr<workload::PeriodicRpcApp>> probes;
    std::size_t i = 0;
    for (const auto& [src, dst] : pairs) {
      auto& rpc = ex.open_rpc(src, dst);
      auto app = std::make_unique<workload::PeriodicRpcApp>(
          ex.sim(), rpc, 64, sim::kMillisecond,
          sim::kMicrosecond * static_cast<sim::Time>(60 * ++i), stop,
          /*ping_pong=*/true);
      app->set_on_sample([&, tl, warmup](sim::Time issued, sim::Time fct) {
        const double ms = sim::to_millis(fct);
        if (issued >= warmup && issued < tl.failed) {
          r.symmetry.add(ms);
        } else if (issued >= tl.failover + scaled(5 * sim::kMillisecond) &&
                   issued < tl.weighted) {
          r.failover.add(ms);
        } else if (issued >= tl.weighted + scaled(10 * sim::kMillisecond)) {
          r.weighted.add(ms);
        }
      });
      probes.push_back(std::move(app));
    }
    ex.sim().run_until(stop);
    r.telemetry = ex.telemetry_snapshot();
    return r;
  });

  for (const StageRtts& r : runs) {
    symmetry.merge(stats::DDSketch::of(r.symmetry));
    failover.merge(stats::DDSketch::of(r.failover));
    weighted.add_all(r.weighted);
    telem.merge(r.telemetry);
  }
  if (json.enabled()) {
    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    const std::pair<const char*, const stats::DDSketch*> stages[] = {
        {"Symmetry", &symmetry}, {"Failover", &failover},
        {"Weighted", &weighted}};
    for (const auto& [name, samples] : stages) {
      harness::SweepResult sweep;
      sweep.rtt_ms = *samples;
      sweep.telemetry = telem;
      json.set_point(name);
      json.record(cfg, sweep);
    }
  }

  print_cdf_table(
      "Figure 18: Presto RTT by failure stage (random bijection)", "ms",
      {{"Symmetry", &symmetry},
       {"Failover", &failover},
       {"Weighted", &weighted}});
  return 0;
}
