// Repository benchmark: runs one named workload on one thread, repeats an
// identical deterministic rep, times each rep on thread CPU time, checks
// every rep's simulated outputs against its digest, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. README.md documents the workloads, the
// metrics and the noise evidence behind the estimator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Testbed builds per set-up round (a build is ~0.05-0.2 ms).
constexpr std::size_t kRoundBuilds = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
      a->have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_quartiles(const char* what, const std::vector<double>& v,
                     double scale, const char* unit) {
  const Quartiles q = quartiles(v);
  std::printf("%-22s n=%-4zu q1 %.6g  median %.6g  q3 %.6g %s\n", what,
              v.size(), q.q1 * scale, q.median * scale, q.q3 * scale, unit);
}

/// Samples beyond a percentile: the count the guide's ">= 10 beyond"
/// rule is checked against.
std::uint64_t beyond(const presto::stats::DDSketch& s, double p) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(s.count()) * (100.0 - p) / 100.0));
}

struct RepLog {
  std::vector<double> cpu_s;
  std::vector<std::vector<double>> laps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

/// Runs one rep and books it: a digest that differs from the reference
/// fails every operation of the rep.
RepResult run_rep(Workload& wl, Tracer* tr, std::uint32_t index,
                  std::uint64_t reference, RepLog& log) {
  if (tr != nullptr) tr->set_rep(index);
  const double t0 = thread_cpu_seconds();
  RepResult r;
  {
    Span rep(tr, Layer::kRep);
    r = wl.rep(tr);
  }
  log.cpu_s.push_back(thread_cpu_seconds() - t0);
  log.laps.push_back(r.laps);
  log.attempted += r.attempted;
  if (reference != 0 && r.digest != reference) {
    ++log.mismatches;
    log.failed += r.attempted;
  } else {
    log.failed += r.failed;
  }
  return r;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  const std::uint64_t seed = a.have_seed ? a.seed : spec->default_seed;
  std::unique_ptr<Workload> wl = make_workload(*spec, seed);
  std::printf("workload %s  seed %" PRIu64 "  trace %d\n", spec->name, seed,
              a.trace ? 1 : 0);

  // The rep count follows from --seconds and the rep's nominal cost, never
  // from a clock, so every run of a workload does the same work.
  const double per_rep = spec->nominal_rep_s * (a.trace ? 2.3 : 1.0);
  const auto reps = static_cast<std::uint32_t>(
      std::max(a.trace ? 2.0 : 3.0, std::round(a.seconds / per_rep)));

  RepLog plain;
  RepLog traced;
  std::uint64_t reference = 0;
  RepResult first;
  // Some counts need the trace forwarders (pending events, fuzz_check's
  // drop causes and GRO segments), so per-layer counts come from here.
  RepResult first_traced;
  double rss_mb = 0;
  Tracer tracer;
  // Set-up: rounds of testbed builds spread over the run, one before each
  // rep and one after the last, so some round misses each slow phase.
  std::vector<std::vector<double>> rounds;
  auto build_round = [&] {
    std::vector<double>& round = rounds.emplace_back();
    for (std::size_t j = 0; j < kRoundBuilds; ++j) {
      round.push_back(wl->timed_build(j));
    }
  };
  for (std::uint32_t i = 0; i < reps; ++i) {
    build_round();
    RepResult r = run_rep(*wl, nullptr, i, reference, plain);
    if (i == 0) {
      reference = r.digest;
      first = std::move(r);
      // Later reps only add allocator retention on top of this peak.
      rss_mb = peak_rss_mb();
    }
    // Traced reps alternate with untraced ones so slow drift in the host's
    // speed lands on both sides of trace_overhead_pct alike.
    if (a.trace) {
      RepResult t = run_rep(*wl, &tracer, i, reference, traced);
      if (i == 0) first_traced = std::move(t);
    }
  }
  build_round();

  const bool pinned = seed == spec->default_seed && spec->pinned_digest != 0;
  const bool pin_ok = !pinned || reference == spec->pinned_digest;
  std::uint64_t attempted = plain.attempted + traced.attempted;
  std::uint64_t failed = plain.failed + traced.failed;
  if (!pin_ok) failed += first.attempted;
  const bool correct = failed == 0 && plain.mismatches == 0 &&
                       traced.mismatches == 0 && pin_ok;

  const double cost = rep_cost_estimate(plain.laps);
  const double setup = build_cost_estimate(rounds);
  std::vector<double> builds;
  for (const std::vector<double>& round : rounds) {
    builds.insert(builds.end(), round.begin(), round.end());
  }
  print_quartiles("setup build", builds, 1e6, "us");
  std::printf("%-22s %.6g us (median over %zu builds of the fastest of "
              "%zu rounds)\n",
              "setup estimate", setup * 1e6, kRoundBuilds, rounds.size());
  print_quartiles("rep cpu (untraced)", plain.cpu_s, 1.0, "s");
  std::printf("%-22s %.6g s (sum over %zu timing slices of the fastest "
              "rep's lap)\n",
              "rep cost estimate", cost, first.laps.size());
  std::printf("%-22s %016" PRIx64 "%s%s  (%u reps, %" PRIu64
              " mismatched)\n",
              "rep digest", reference, pinned ? "  pinned " : "",
              pinned ? (pin_ok ? "ok" : "MISMATCH") : "",
              reps * (a.trace ? 2 : 1), plain.mismatches + traced.mismatches);
  std::printf("%-22s %" PRIu64 " attempted, %" PRIu64 " failed\n",
              "operations", attempted, failed);
  std::printf("%-22s %" PRIu64 " events, %" PRIu64 " flows, %" PRIu64
              " scenarios\n",
              "work/rep", first.counts.events, first.flows, first.scenarios);
  // Printed for reading, not gated: these vary with the seed's traffic by
  // more than a bound could allow (README.md).
  std::printf("%-22s %.6g MB after the first rep\n", "peak rss", rss_mb);
  std::printf("%-22s %.6g flows/s  %.6g scenarios/s  %.1f ns/event\n",
              "throughput", static_cast<double>(first.flows) / cost,
              static_cast<double>(first.scenarios) / cost,
              cost * 1e9 / static_cast<double>(first.counts.events));
  std::printf("%-22s n=%" PRIu64 " (%" PRIu64 " beyond p99)  mice n=%" PRIu64
              " (%" PRIu64 " beyond p99)\n",
              "fct samples/rep", first.fct_ms.count(),
              beyond(first.fct_ms, 99), first.mice_fct_ms.count(),
              beyond(first.mice_fct_ms, 99));
  std::printf("%-22s p50 %.6g  p99 %.6g  mice p99 %.6g ms  goodput %.6g "
              "Gbps\n",
              "fidelity", first.fct_ms.percentile(50),
              first.fct_ms.percentile(99), first.mice_fct_ms.percentile(99),
              first.goodput_gbps);

  std::vector<Metric> m;
  if (!a.trace) {
    m = {
        {"events_per_s", "1/s",
         static_cast<double>(first.counts.events) / cost},
        {"setup_s", "s", setup},
        {"goodput_gbps", "Gbps", first.goodput_gbps},
    };
  } else {
    const double npt = tracer.ns_per_tick();
    const double n_reps = static_cast<double>(traced.cpu_s.size());
    const LayerTotals& rep = tracer.totals(Layer::kRep);
    const double rep_ticks = static_cast<double>(rep.ticks);
    auto calls = [&](Layer l) {
      return static_cast<double>(tracer.totals(l).calls) / n_reps;
    };
    auto self_ns = [&](Layer l) {
      const LayerTotals& t = tracer.totals(l);
      return t.calls == 0 ? 0.0
                          : static_cast<double>(t.self_ticks) * npt /
                                static_cast<double>(t.calls);
    };
    auto share = [&](Layer l) {
      return static_cast<double>(tracer.totals(l).self_ticks) / rep_ticks;
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    const LayerCounts& c = first_traced.counts;
    const double events = static_cast<double>(c.events);
    const LayerTotals& build = tracer.totals(Layer::kBuild);
    const LayerTotals& finish = tracer.totals(Layer::kFinish);
    const double drops = static_cast<double>(
        c.drop_queue_full + c.drop_loss_model + c.drop_link_down +
        c.drop_no_route);
    const double overhead =
        100.0 * (rep_cost_estimate(traced.laps) / cost - 1.0);
    m = {
        {"sim.events", "count", events},
        {"sim.events_per_flow", "count",
         ratio(events, static_cast<double>(first.flows))},
        {"sim.ns_per_event", "ns", ratio(cost * 1e9, events)},
        {"sim.allocs_per_event", "count",
         ratio(static_cast<double>(tracer.totals(Layer::kSimRun).allocs) /
                   n_reps,
               events)},
        {"sim.pending_max", "count", static_cast<double>(c.pending_max)},
        {"sim.residual_share", "ratio", share(Layer::kSimRun)},
        {"harness.build_us", "us",
         ratio(static_cast<double>(build.ticks) * npt / 1e3,
               static_cast<double>(build.calls))},
        {"harness.build_allocs", "count",
         ratio(static_cast<double>(build.allocs),
               static_cast<double>(build.calls))},
        {"harness.build_share", "ratio", share(Layer::kBuild)},
        {"net.switch_rx", "count", calls(Layer::kSwitchRx)},
        {"net.switch_rx_ns", "ns", self_ns(Layer::kSwitchRx)},
        {"net.switch_rx_share", "ratio", share(Layer::kSwitchRx)},
        {"net.enqueued", "count", static_cast<double>(c.switch_enqueued)},
        {"net.drop_ratio", "ratio", ratio(drops, calls(Layer::kSwitchRx))},
        {"net.drop.queue_full", "count",
         static_cast<double>(c.drop_queue_full)},
        {"net.drop.loss_model", "count",
         static_cast<double>(c.drop_loss_model)},
        {"net.drop.link_down", "count",
         static_cast<double>(c.drop_link_down)},
        {"net.drop.no_route", "count", static_cast<double>(c.drop_no_route)},
        {"host.rx", "count", calls(Layer::kHostRx)},
        {"host.rx_ns", "ns", self_ns(Layer::kHostRx)},
        {"host.rx_share", "ratio", share(Layer::kHostRx)},
        {"host.ring_drops", "count", static_cast<double>(c.ring_drops)},
        {"offload.gro_pushed", "count", static_cast<double>(c.gro_pushed)},
        {"offload.merge_ratio", "ratio",
         ratio(static_cast<double>(c.gro_merges),
               static_cast<double>(c.gro_merges + c.gro_pushed))},
        {"offload.gro_holds", "count", static_cast<double>(c.gro_holds)},
        {"offload.flush_timeout", "count",
         static_cast<double>(c.gro_flush_timeout)},
        {"tcp.retx_fast", "count", static_cast<double>(c.retx_fast)},
        {"tcp.rto", "count", static_cast<double>(c.rto)},
        {"tcp.retx_ratio", "ratio",
         ratio(static_cast<double>(c.retx_bytes),
               static_cast<double>(c.acked_bytes))},
        {"tcp.dup_acks", "count", static_cast<double>(c.dup_acks)},
        {"core.cells", "count", static_cast<double>(c.cells)},
        {"core.cells_per_flow", "count",
         ratio(static_cast<double>(c.cells), static_cast<double>(first.flows))},
        {"core.suspicion_skips", "count",
         static_cast<double>(c.suspicion_skips)},
        {"controller.loop_ticks", "count", static_cast<double>(c.loop_ticks)},
        {"controller.loop_pushes", "count",
         static_cast<double>(c.loop_pushes)},
        {"controller.push_ratio", "ratio",
         ratio(static_cast<double>(c.loop_pushes),
               static_cast<double>(c.loop_ticks))},
        {"controller.recomputes", "count", static_cast<double>(c.recomputes)},
        {"telemetry.reports", "count", static_cast<double>(c.reports)},
        {"telemetry.report_drops", "count",
         static_cast<double>(c.report_drops)},
        {"fault.events", "count", static_cast<double>(c.fault_actions)},
        {"workload.next", "count", calls(Layer::kFlowNext)},
        {"workload.next_ns", "ns", self_ns(Layer::kFlowNext)},
        {"workload.next_share", "ratio", share(Layer::kFlowNext)},
        {"workload.flows_offered", "count",
         static_cast<double>(c.flows_offered)},
        {"stats.sketch_add_ns", "ns", self_ns(Layer::kSketchAdd)},
        {"stats.sketch_add_share", "ratio", share(Layer::kSketchAdd)},
        {"stats.sketch_buckets", "count",
         static_cast<double>(c.sketch_buckets)},
        {"stats.fct_samples", "count",
         static_cast<double>(first.fct_ms.count())},
        {"stats.fct_p50_ms", "ms", first.fct_ms.percentile(50)},
        {"stats.fct_p99_ms", "ms", first.fct_ms.percentile(99)},
        {"stats.mice_fct_p99_ms", "ms", first.mice_fct_ms.percentile(99)},
        {"check.tap", "count", calls(Layer::kTap)},
        {"check.tap_ns", "ns", self_ns(Layer::kTap)},
        {"check.tap_share", "ratio", share(Layer::kTap)},
        {"check.finish_us", "us",
         ratio(static_cast<double>(finish.ticks) * npt / 1e3,
               static_cast<double>(finish.calls))},
        {"check.finish_share", "ratio", share(Layer::kFinish)},
        {"check.violations", "count", static_cast<double>(c.violations)},
        {"trace_overhead_pct", "%", overhead},
    };

    // Per-layer table (self time, share, calls, allocations), per rep.
    std::string table;
    char line[200];
    std::snprintf(line, sizeof(line), "%-18s %14s %12s %8s %14s %10s\n",
                  "layer", "calls/rep", "self_ms/rep", "share",
                  "self_allocs", "self_ns");
    table += line;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      const auto layer = static_cast<Layer>(l);
      const LayerTotals& t = tracer.totals(layer);
      std::snprintf(line, sizeof(line),
                    "%-18s %14.0f %12.3f %8.4f %14.0f %10.1f\n",
                    layer_name(layer), calls(layer),
                    static_cast<double>(t.self_ticks) * npt / 1e6 / n_reps,
                    share(layer),
                    static_cast<double>(t.self_allocs) / n_reps,
                    self_ns(layer));
      table += line;
    }
    std::printf("\n%s", table.c_str());
    print_quartiles("rep cpu (traced)", traced.cpu_s, 1.0, "s");
    std::printf("%-22s %.3f %%\n", "trace overhead", overhead);
    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    const std::string base = a.out + "/" + spec->name;
    write_file(base + ".layers.txt", table);
    write_file(base + ".trace.json", tracer.chrome_json());
    std::printf("wrote %s.layers.txt and %s.trace.json\n", base.c_str(),
                base.c_str());
  }

  for (const Metric& x : m) {
    if (!valid_metric_name(x.name)) {
      std::fprintf(stderr, "perfbench: bad metric name %s\n", x.name.c_str());
      return 3;
    }
  }
  std::fflush(stdout);
  std::printf("%s\n", result_json(correct, attempted, failed, m).c_str());
  return 0;
}
