// Figure 20 (beyond-paper): open-loop FCT load sweep.
//
// Sweeps offered load (0.1 .. 0.9) x scheme (ECMP / Presto / Optimal) x
// workload mix (websearch / datamining empirical CDFs), each point overlaid
// with a light synchronized-incast tenant (MixGenerator composition). Every
// flow is issued at its generator arrival time no matter how congested the
// fabric is — the open-loop regime where tail FCT degrades first — and all
// FCT statistics come from bounded DDSketches, so the sweep's stats memory
// stays constant while it offers hundreds of thousands of flows.
//
// Expected shape: all schemes match at low load; as load grows, ECMP's
// collision-prone path selection inflates p99/p99.9 FCT well before Presto,
// which tracks Optimal until the fabric itself saturates.
//
// `--smoke` shrinks the sweep (2 loads x 2 schemes x 1 mix, short windows)
// for CI; PRESTO_BENCH_TIME_SCALE scales the windows in either mode.
// `--scheme <id>` restricts the sweep to one registry scheme (the CI
// scheme-matrix job runs `--smoke --scheme <id>` per registered scheme,
// which covers the Clos *and* the asymmetric fabric); `--topo <id>`
// restricts the passes to one topology kind.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/openloop.h"
#include "lb/registry.h"
#include "sim/digest.h"
#include "workload/openloop/generator.h"

using namespace presto;
using namespace presto::bench;

namespace {

namespace ol = workload::openloop;

harness::OpenLoopResult run_point(harness::Scheme scheme,
                                  net::TopologyKind topo,
                                  const ol::EmpiricalCdf& sizes, double load,
                                  std::uint64_t seed,
                                  const harness::OpenLoopOptions& opt,
                                  sim::Time incast_interval, bool telemetry) {
  harness::ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.topology = topo;
  cfg.seed = seed;
  cfg.telemetry.metrics = telemetry;
  if (telemetry) {
    cfg.telemetry.fabric.monitors = true;
    cfg.telemetry.fabric.flush_period = scaled(5 * sim::kMillisecond);
  }
  const std::uint32_t hosts = cfg.leaves * cfg.hosts_per_leaf;

  // Tenant 0: load-driven arrivals over the empirical size mix.
  ol::OpenLoopGenerator::Config main_cfg;
  main_cfg.sizes = &sizes;
  main_cfg.arrival.load = load;
  main_cfg.arrival.link_rate_bps = cfg.link_rate_bps;
  main_cfg.hosts = hosts;
  main_cfg.hosts_per_rack = cfg.hosts_per_leaf;
  main_cfg.seed = seed;

  // Tenant 1: periodic 8-way incast epochs riding on top of the base load.
  ol::IncastGenerator::Config in_cfg;
  in_cfg.hosts = hosts;
  in_cfg.fanin = 8;
  in_cfg.bytes_each = 20 * 1024;
  in_cfg.interval = incast_interval;
  in_cfg.start = incast_interval / 2;
  in_cfg.seed = seed + 1;

  std::vector<std::unique_ptr<ol::FlowGenerator>> tenants;
  tenants.push_back(std::make_unique<ol::OpenLoopGenerator>(main_cfg));
  tenants.push_back(std::make_unique<ol::IncastGenerator>(in_cfg));
  ol::MixGenerator mix(std::move(tenants));

  return harness::run_openloop(cfg, mix, opt);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool have_scheme = false;
  harness::Scheme only_scheme = harness::Scheme::kPresto;
  bool have_topo = false;
  net::TopologyKind only_topo = net::TopologyKind::kClos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      if (!lb::parse_scheme_id(argv[++i], &only_scheme)) {
        std::fprintf(stderr, "unknown --scheme: %s\n", argv[i]);
        return 2;
      }
      have_scheme = true;
    } else if (std::strcmp(argv[i], "--topo") == 0 && i + 1 < argc) {
      if (!net::parse_topology_kind(argv[++i], &only_topo)) {
        std::fprintf(stderr, "unknown --topo: %s\n", argv[i]);
        return 2;
      }
      have_topo = true;
    }
  }
  JsonReporter json("fig20_openloop_fct", argc, argv);
  json.note_run_config(seed_count(), time_scale());

  const ol::EmpiricalCdf websearch = ol::EmpiricalCdf::websearch();
  const ol::EmpiricalCdf datamining = ol::EmpiricalCdf::datamining();

  using MixList = std::vector<std::pair<const char*, const ol::EmpiricalCdf*>>;
  struct Pass {
    net::TopologyKind topo;
    std::vector<harness::Scheme> schemes;
    MixList mixes;
  };

  std::vector<double> loads = {0.1, 0.3, 0.5, 0.7, 0.9};
  // Pass 1: the symmetric Clos with the full rival set. Pass 2: the
  // asymmetric fabric (one slowed spine), where static-hash and blind
  // round-robin spraying misjudge path capacity in different ways.
  std::vector<Pass> passes = {
      {net::TopologyKind::kClos,
       {harness::Scheme::kEcmp, harness::Scheme::kPresto,
        harness::Scheme::kOptimal, harness::Scheme::kFlowDyn,
        harness::Scheme::kDiffFlow, harness::Scheme::kSprinklers},
       {{"websearch", &websearch}, {"datamining", &datamining}}},
      {net::TopologyKind::kAsymClos,
       {harness::Scheme::kPresto, harness::Scheme::kEcmp,
        harness::Scheme::kFlowDyn, harness::Scheme::kDiffFlow,
        harness::Scheme::kSprinklers},
       {{"websearch", &websearch}}},
  };

  harness::OpenLoopOptions opt;
  opt.warmup = scaled(50 * sim::kMillisecond);
  opt.measure = scaled(400 * sim::kMillisecond);
  opt.drain = scaled(200 * sim::kMillisecond);
  sim::Time incast_interval = scaled(20 * sim::kMillisecond);
  if (smoke) {
    loads = {0.3, 0.7};
    passes = {{net::TopologyKind::kClos,
               {harness::Scheme::kEcmp, harness::Scheme::kPresto},
               {{"websearch", &websearch}}},
              {net::TopologyKind::kAsymClos,
               {harness::Scheme::kEcmp, harness::Scheme::kPresto},
               {{"websearch", &websearch}}}};
    if (!have_scheme && !have_topo) passes.pop_back();  // legacy smoke shape
    opt.warmup = scaled(10 * sim::kMillisecond);
    opt.measure = scaled(60 * sim::kMillisecond);
    opt.drain = scaled(60 * sim::kMillisecond);
    incast_interval = scaled(5 * sim::kMillisecond);
  }
  if (have_scheme) {
    const bool single_switch =
        lb::SchemeRegistry::instance().info(only_scheme).single_switch;
    for (Pass& p : passes) p.schemes = {only_scheme};
    if (single_switch) {
      // Optimal replaces the fabric with one big switch; the asymmetric
      // pass would silently measure the same thing twice.
      while (passes.size() > 1) passes.pop_back();
    }
  }
  if (have_topo) {
    std::vector<Pass> kept;
    for (Pass& p : passes) {
      if (p.topo == only_topo) kept.push_back(std::move(p));
    }
    if (kept.empty() && !passes.empty()) {
      kept.push_back(std::move(passes.front()));
      kept.front().topo = only_topo;
    }
    passes = std::move(kept);
  }

  std::uint64_t total_offered = 0;
  std::uint64_t total_measured = 0;
  // Folds every run's executed-event count: a cheap cross-rerun
  // determinism digest for the whole sweep.
  sim::Digest digest;

  std::printf("Figure 20: open-loop FCT vs offered load (ms, from sketches)\n");
  for (const Pass& pass : passes) {
  const char* topo_id = net::topology_kind_id(pass.topo);
  for (const auto& [mix_name, cdf] : pass.mixes) {
    std::printf("\n[%s] %-10s %-8s %8s %7s %9s %9s %9s %9s %9s\n", topo_id,
                mix_name, "scheme", "flows", "load", "p50", "p99", "p99.9",
                "mice p99", "eleph p50");
    for (double load : loads) {
      for (harness::Scheme scheme : pass.schemes) {
        // One seed replica per sweep-pool slot; OpenLoopResults are merged
        // in seed order (sketch merges are associative, so the merged
        // percentiles are independent of completion order anyway).
        const int n = seed_count();
        const std::vector<harness::OpenLoopResult> reps =
            harness::run_indexed(n, thread_count(), [&](int s) {
              return run_point(scheme, pass.topo, *cdf, load,
                               6100 + 13 * static_cast<std::uint64_t>(s), opt,
                               incast_interval, json.enabled());
            });
        harness::OpenLoopResult agg;
        for (const harness::OpenLoopResult& r : reps) {
          agg.fct_ms.merge(r.fct_ms);
          agg.mice_fct_ms.merge(r.mice_fct_ms);
          agg.elephant_fct_ms.merge(r.elephant_fct_ms);
          agg.flow_bytes.merge(r.flow_bytes);
          agg.flows_offered += r.flows_offered;
          agg.flows_completed += r.flows_completed;
          agg.flows_measured += r.flows_measured;
          agg.offered_bytes += r.offered_bytes;
          agg.timeouts += r.timeouts;
          agg.measured_load += r.measured_load;
          agg.telemetry.merge(r.telemetry);
          if (agg.fabric_health_json.empty() &&
              !r.fabric_health_json.empty()) {
            agg.fabric_health_json = r.fabric_health_json;
          }
          digest.mix(r.executed_events);
        }
        agg.measured_load /= n;
        total_offered += agg.flows_offered;
        total_measured += agg.flows_measured;

        std::printf("%-10s %-8s %8llu %6.0f%% %9.3f %9.3f %9.3f %9.3f"
                    " %9.1f\n",
                    "", harness::scheme_name(scheme),
                    static_cast<unsigned long long>(agg.flows_offered),
                    100.0 * agg.measured_load, agg.fct_ms.percentile(50),
                    agg.fct_ms.percentile(99), agg.fct_ms.percentile(99.9),
                    agg.mice_fct_ms.percentile(99),
                    agg.elephant_fct_ms.percentile(50));

        if (json.enabled()) {
          harness::SweepResult sweep;
          sweep.fct_ms = agg.fct_ms;
          sweep.rtt_ms = agg.mice_fct_ms;  // mice slice in the second slot
          sweep.mice_timeouts = agg.timeouts;
          sweep.telemetry = agg.telemetry;
          sweep.fabric_health_json = agg.fabric_health_json;
          harness::ExperimentConfig cfg;
          cfg.scheme = scheme;
          cfg.topology = pass.topo;
          std::string point = std::string(harness::scheme_name(scheme)) + "/" +
                              mix_name;
          if (pass.topo != net::TopologyKind::kClos) {
            point += std::string("@") + topo_id;
          }
          json.set_point(
              point + "/load" + std::to_string(load).substr(0, 3),
              {{"load", load},
               {"measured_load", agg.measured_load},
               {"flows_offered", static_cast<double>(agg.flows_offered)},
               {"flows_measured", static_cast<double>(agg.flows_measured)},
               {"eleph_fct_p50_ms", agg.elephant_fct_ms.percentile(50)},
               {"eleph_fct_p99_ms", agg.elephant_fct_ms.percentile(99)},
               {"sketch_buckets",
                static_cast<double>(agg.fct_ms.bucket_count())}});
          json.record(cfg, sweep);
        }
      }
    }
  }
  }

  std::printf("\ntotal flows offered %llu (measured-window completions %llu)"
              "\nsweep determinism digest %016llx\n",
              static_cast<unsigned long long>(total_offered),
              static_cast<unsigned long long>(total_measured),
              static_cast<unsigned long long>(digest.value()));
  return 0;
}
