// Figure 5: Presto GRO vs stock ("official") GRO under flowcell spraying on
// the Figure-4b topology — two senders on one leaf spray flowcells over two
// paths to receivers on the other leaf.
//
// Paper results:
//  (a) out-of-order segment count CDF: Presto GRO masks reordering entirely
//      (all zero); official GRO exposes heavy reordering to TCP;
//  (b) pushed segment size CDF: official GRO degenerates to ~MTU segments
//      ("small segment flooding") while Presto GRO pushes large segments;
//      measured: official 4.6 Gbps @ 86% CPU vs Presto 9.3 Gbps @ 69% CPU.

#include "bench_util.h"
#include "stats/reorder_metrics.h"

using namespace presto;
using namespace presto::bench;

namespace {

struct GroRunResult {
  stats::DDSketch ooo_counts;
  stats::DDSketch segment_sizes;
  double tput_gbps = 0;
  double cpu_pct = 0;
  telemetry::Snapshot telemetry;
};

GroRunResult run_one(host::GroKind gro, std::uint64_t seed, bool telemetry) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;  // flowcell spraying at the sender
  cfg.force_gro = true;                   // ...but pick the receiver GRO here
  cfg.host.gro = gro;
  cfg.telemetry.metrics = telemetry;
  // Pronounced (but realistic) host scheduling jitter: keeps the two
  // senders' flowcells interleaving in the shared spine queues, which is
  // what makes this microbenchmark reorder "for each flow" (§5).
  cfg.host.tx_jitter = 8 * sim::kMicrosecond;
  cfg.spines = 2;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.seed = seed;
  harness::Experiment ex(cfg);

  // Taps observe segments pushed up to TCP on the two receivers.
  auto metrics = std::make_shared<stats::ReorderMetrics>();
  for (net::HostId h : {net::HostId{2}, net::HostId{3}}) {
    ex.host(h).add_segment_tap(
        [metrics](const offload::Segment& s) { metrics->on_segment(s); });
  }
  auto& e0 = ex.add_elephant(0, 2, 0);
  auto& e1 = ex.add_elephant(1, 3, 0);

  const sim::Time warmup = scaled(100 * sim::kMillisecond);
  const sim::Time measure = scaled(400 * sim::kMillisecond);
  ex.sim().run_until(warmup);
  const std::uint64_t d0 = e0.delivered() + e1.delivered();
  const sim::Time busy0 =
      ex.host(2).cpu().busy_ns() + ex.host(3).cpu().busy_ns();
  ex.sim().run_until(warmup + measure);
  const std::uint64_t d1 = e0.delivered() + e1.delivered();
  const sim::Time busy1 =
      ex.host(2).cpu().busy_ns() + ex.host(3).cpu().busy_ns();

  metrics->finish();
  GroRunResult r;
  r.ooo_counts = stats::DDSketch::of(metrics->out_of_order_counts());
  r.segment_sizes = stats::DDSketch::of(metrics->segment_sizes());
  r.tput_gbps =
      8.0 * static_cast<double>(d1 - d0) / sim::to_seconds(measure) / 1e9 / 2;
  r.cpu_pct = 100.0 * static_cast<double>(busy1 - busy0) /
              static_cast<double>(2 * measure);
  r.telemetry = ex.telemetry_snapshot();
  return r;
}

GroRunResult run_seeds_for(host::GroKind gro, const JsonReporter& json) {
  // One replica per seed on the sweep pool; merged in seed order.
  const std::vector<GroRunResult> runs = harness::run_indexed(
      seed_count(), thread_count(),
      [&](int s) { return run_one(gro, 5000 + s, json.enabled()); });
  GroRunResult agg;
  for (const GroRunResult& r : runs) {
    agg.ooo_counts.merge(r.ooo_counts);
    agg.segment_sizes.merge(r.segment_sizes);
    agg.tput_gbps += r.tput_gbps / seed_count();
    agg.cpu_pct += r.cpu_pct / seed_count();
    agg.telemetry.merge(r.telemetry);
  }
  return agg;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("fig05_gro_reordering", argc, argv);
  json.note_run_config(seed_count(), time_scale());
  const GroRunResult official = run_seeds_for(host::GroKind::kOfficial, json);
  const GroRunResult presto = run_seeds_for(host::GroKind::kPresto, json);
  if (json.enabled()) {
    const std::pair<const char*, const GroRunResult*> variants[] = {
        {"OfficialGRO", &official}, {"PrestoGRO", &presto}};
    for (const auto& [name, r] : variants) {
      harness::SweepResult sweep;
      sweep.avg_tput_gbps = r->tput_gbps;
      sweep.telemetry = r->telemetry;
      harness::ExperimentConfig cfg;
      cfg.scheme = harness::Scheme::kPresto;
      json.set_point(name, {{"cpu_pct", r->cpu_pct}});
      json.record(cfg, sweep);
    }
  }

  print_cdf_table("Figure 5a: out-of-order segment count per flowcell",
                  "segments",
                  {{"OfficialGRO", &official.ooo_counts},
                   {"PrestoGRO", &presto.ooo_counts}});
  print_cdf_table("Figure 5b: pushed TCP segment size", "bytes",
                  {{"OfficialGRO", &official.segment_sizes},
                   {"PrestoGRO", &presto.segment_sizes}});
  std::printf(
      "\nThroughput/CPU: official GRO %.2f Gbps @ %.0f%% CPU,"
      " Presto GRO %.2f Gbps @ %.0f%% CPU\n",
      official.tput_gbps, official.cpu_pct, presto.tput_gbps, presto.cpu_pct);
  std::printf("(paper: 4.6 Gbps @ 86%% vs 9.3 Gbps @ 69%%)\n");
  return 0;
}
