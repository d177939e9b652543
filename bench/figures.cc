#include "figures.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace presto::bench {
namespace {

using harness::ExperimentConfig;
using harness::Scheme;

/// Figure 4: two leaves joined by `spines` spines, `hosts` hosts each;
/// host i of the first leaf sends to host i of the second.
std::vector<workload::HostPair> two_leaf(ExperimentConfig& cfg, double spines,
                                         double hosts) {
  cfg.spines = static_cast<std::uint32_t>(spines);
  cfg.leaves = 2;
  cfg.hosts_per_leaf = static_cast<std::uint32_t>(hosts);
  std::vector<workload::HostPair> pairs;
  for (std::uint32_t i = 0; i < cfg.hosts_per_leaf; ++i) {
    pairs.emplace_back(i, cfg.hosts_per_leaf + i);
  }
  return pairs;
}

/// Figure 4a, the scalability benchmark: one flow per path.
std::vector<workload::HostPair> per_path(ExperimentConfig& cfg, double paths) {
  return two_leaf(cfg, paths, paths);
}

/// Figure 4b, the oversubscription benchmark: 2 x ratio flows, 2 paths.
std::vector<workload::HostPair> oversub(ExperimentConfig& cfg, double ratio) {
  return two_leaf(cfg, 2, 2 * ratio);
}

/// The Figure 3 Clos (the config's defaults: 16 hosts) under stride(8).
std::vector<workload::HostPair> stride8(ExperimentConfig&, double) {
  return workload::stride_pairs(16, 8);
}

/// Figure 10's Optimal: ideal fluid sharing of the two 10 GbE paths by
/// 2 x ratio flows (the paper's Optimal degrades with the ratio the same
/// way — "all schemes track Optimal").
double fluid_share(double ratio) {
  return std::min(9.43, 2.0 * 9.43 / (2 * ratio));
}

Variant scheme(Scheme s) { return {harness::scheme_name(s), s}; }

Variant flowlet(const char* name, sim::Time gap) {
  return {name, Scheme::kFlowlet, {{"flowlet_gap_us", gap / 1000.0}},
          [gap](ExperimentConfig& c) { c.flowlet_gap = gap; }};
}

/// 128 KB exceeds the TSO limit, so consecutive segments share a flowcell.
Variant flowcell(std::uint32_t kb) {
  return {"flowcell=" + std::to_string(kb) + "KB", Scheme::kPresto,
          {{"flowcell_kb", static_cast<double>(kb)}},
          [kb](ExperimentConfig& c) { c.flowcell_bytes = kb * 1024; },
          std::to_string(kb)};
}

/// Presto GRO's hold timeout: adaptive alpha x EWMA, or static (zero gains
/// freeze the EWMA, pinned to `initial`).
Variant gro_timeout(const char* name, double alpha, sim::Time initial,
                    double gain_up, double gain_down) {
  return {name, Scheme::kPresto, {{"alpha", alpha}}, [=](ExperimentConfig& c) {
            c.host.presto_gro.alpha = alpha;
            c.host.presto_gro.initial_ewma = initial;
            c.host.presto_gro.ewma_gain_up = gain_up;
            c.host.presto_gro.ewma_gain_down = gain_down;
            if (gain_up == 0.0) {
              c.host.presto_gro.min_ewma = initial;
              c.host.presto_gro.max_ewma = initial;
            }
          }};
}

/// Round-robin or random shadow-MAC choice per flowcell, and Presto GRO's
/// beta "recently merged" hold extension (1e9 disables it).
Variant path_choice(const char* name, bool random, double beta) {
  return {name, Scheme::kPresto, {}, [=](ExperimentConfig& c) {
            c.flowcell_random_selection = random;
            c.host.presto_gro.beta = beta;
          }};
}

constexpr harness::RunOptions kRtt{.rtt_probes = true};
constexpr bool kAtLeast = true;
constexpr bool kAtMost = false;
constexpr double kAll = NAN;

// Claims quote the paper as EXPERIMENTS.md does. Thresholds are its
// numbers: "within a few percent" reads 5%, "9.3 vs 8.9 Gbps" reads
// 9.3 / 8.9, and a bare ordering reads 1. Absolute levels are not claims
// (EXPERIMENTS.md: the comparisons are the reproduction target). RTT tails
// are p99 unless the paper names p99.9.
std::vector<Row> make_rows() {
  const sim::Time us = sim::kMicrosecond;
  const std::vector<Variant> oversub3 = {scheme(Scheme::kEcmp),
                                         scheme(Scheme::kMptcp),
                                         scheme(Scheme::kPresto)};
  std::vector<Variant> headline = oversub3;
  headline.push_back(scheme(Scheme::kOptimal));
  // A bench prints "loss %%" as is: its headers are %s arguments.
  return {
      {.name = "fig07_scalability_tput",
       .title = "Figure 7: avg flow throughput (Gbps) vs path count",
       .variants = headline, .fabric = per_path, .param = "paths",
       .sweep = {2, 3, 4, 5, 6, 7, 8}, .keys = {{"paths", 6}},
       .columns = {{tput, 10, 2}},
       .claims = {{"Presto tracks Optimal within a few percent at every path "
                   "count", tput, "Presto", kAtLeast, 0.95, {"Optimal"}},
                  {"ECMP loses 30-50% to hash collisions", tput, "ECMP",
                   kAtMost, 0.70, {"Optimal"}},
                  {"MPTCP in between", tput, "MPTCP", kAtLeast, 1, {"ECMP"}},
                  {"MPTCP in between", tput, "MPTCP", kAtMost, 1,
                   {"Presto"}}}},
      {.name = "fig08_scalability_rtt", .opt = kRtt, .variants = headline,
       .fabric = per_path, .param = "paths", .sweep = {8},
       .cdf = "Figure 8: RTT in scalability benchmark (8 paths)",
       .claims = {{"Presto's RTT tracks Optimal", rtt_p99, "Presto", kAtMost,
                   1.05, {"Optimal"}},
                  {"ECMP has the worst tail because collided flows queue "
                   "behind each other", rtt_p99, "ECMP", kAtLeast, 1, {}, kAll,
                   3}}},
      {.name = "fig09_scalability_loss_fairness",
       .title = "Figure 9: loss% (a) and fairness (b) vs path count",
       .variants = headline, .fabric = per_path, .param = "paths",
       .sweep = {2, 4, 6, 8}, .keys = {{"paths", 6}},
       .columns = {{loss, 9, 4}, {fairness, 8, 3}},
       .claims = {{"Presto and Optimal are loss-free; ECMP and MPTCP drop",
                   loss, "Presto", kAtMost, 1, {"ECMP", "MPTCP"}},
                  {"MPTCP loses the most (bursty subflows)", loss, "MPTCP",
                   kAtLeast, 1, {}, kAll, 7},
                  {"Presto/MPTCP/Optimal achieve near-perfect fairness while "
                   "ECMP is unfair under collisions", fairness, "ECMP",
                   kAtMost, 1, {}}}},
      {.name = "fig10_oversub_tput",
       .title = "Figure 10: avg flow throughput (Gbps) vs oversubscription",
       .variants = oversub3, .fabric = oversub, .param = "ratio",
       .sweep = {1, 2, 3, 4}, .keys = {{"ratio", 8, 1}, {"pairs", 6, 0, 2}},
       .columns = {{tput, 10, 2}}, .fluid_optimal = fluid_share,
       .claims = {{"Presto tracks Optimal (ideal fluid sharing of the 2-path "
                   "fabric)", tput, "Presto", kAtLeast, 0.95, {"Optimal"}},
                  {"all schemes track Optimal as the fabric saturates", tput,
                   "MPTCP", kAtLeast, 0.95, {"Optimal"}, 4},
                  {"all schemes track Optimal as the fabric saturates", tput,
                   "ECMP", kAtLeast, 0.95, {"Optimal"}, 4, 8},
                  {"ECMP worst at low ratios", tput, "ECMP", kAtMost, 1, {},
                   1}}},
      {.name = "fig11_oversub_rtt", .opt = kRtt, .variants = oversub3,
       .fabric = oversub, .param = "ratio", .sweep = {4},
       .cdf = "Figure 11: RTT at oversubscription ratio 4",
       .claims = {{"MPTCP has the longest tail (it keeps switch buffers "
                   "fullest)", rtt_p99, "MPTCP", kAtLeast, 1, {}}}},
      {.name = "fig12_oversub_loss_fairness",
       .title = "Figure 12: loss% (a) and fairness (b) vs oversubscription "
                "ratio",
       .variants = oversub3, .fabric = oversub, .param = "ratio",
       .sweep = {1, 2, 3, 4}, .keys = {{"ratio", 8, 1}},
       .columns = {{loss, 9, 4}, {fairness, 8, 3}},
       .claims = {{"MPTCP has the highest loss at every ratio", loss, "MPTCP",
                   kAtLeast, 1, {}, kAll, 7},
                  {"Presto and MPTCP stay near-perfectly fair while ECMP's "
                   "fairness dips", fairness, "ECMP", kAtMost, 1, {}}}},
      {.name = "fig13_flowlet_comparison",
       .title = "Figure 13: flowlet switching vs Presto, stride(8)",
       .opt = kRtt,
       .variants = {flowlet("Flowlet100us", 100 * us),
                    flowlet("Flowlet500us", 500 * us),
                    {"Presto", Scheme::kPresto, {{"flowlet_gap_us", 0.0}}}},
       .fabric = stride8, .keys = {{"scheme", 14}},
       .columns = {{tput, 10, 2, "tput Gbps"}, {fairness, 10, 3, "fairness"},
                   {loss, 10, 4, "loss %%"}},
       .cdf = "Figure 13: RTT, flowlet vs Presto",
       .footer =
           [](const Points& p) {
             const double presto = p.value(rtt_p999, "Presto", 0);
             std::printf("\n99.9th percentile RTT ratio (flowlet / Presto): "
                         "100us=%.2fx 500us=%.2fx\n",
                         p.value(rtt_p999, "Flowlet100us", 0) / presto,
                         p.value(rtt_p999, "Flowlet500us", 0) / presto);
           },
       .claims = {{"Presto 9.3 Gbps vs flowlet-100us 4.3 Gbps", tput, "Presto",
                   kAtLeast, 9.3 / 4.3, {"Flowlet100us"}},
                  {"Presto 9.3 Gbps vs flowlet-500us 7.6 Gbps", tput, "Presto",
                   kAtLeast, 9.3 / 7.6, {"Flowlet500us"}},
                  {"flowlet-500us (7.6 Gbps) above flowlet-100us (4.3 Gbps)",
                   tput, "Flowlet500us", kAtLeast, 1, {"Flowlet100us"}, kAll,
                   2},
                  {"Presto cuts the 99.9th-percentile RTT 2-3.6x", rtt_p999,
                   "Presto", kAtMost, 1 / 2.0, {"Flowlet100us", "Flowlet500us"},
                   kAll, 6}}},
      {.name = "fig14_perhop_vs_e2e",
       .title = "Figure 14: Presto path selection, stride(8)", .opt = kRtt,
       .variants = {scheme(Scheme::kPrestoEcmp), scheme(Scheme::kPresto)},
       .fabric = stride8, .keys = {{"variant", 22}},
       .columns = {{tput, 10, 2, "tput Gbps"}, {loss, 10, 4, "loss %%"}},
       .cdf = "Figure 14: RTT, per-hop vs end-to-end",
       .cdf_names = {"Presto+ECMP", "Presto+ShadowMAC"},
       .claims = {{"shadow MACs average 9.3 Gbps vs 8.9 Gbps for per-hop "
                   "hashing", tput, "Presto", kAtLeast, 9.3 / 8.9,
                   {"Presto+ECMP"}},
                  {"shadow MACs have a better RTT distribution", rtt_p99,
                   "Presto", kAtMost, 1, {"Presto+ECMP"}, kAll, 6}}},
      {.name = "ablation_flowcell_size",
       .title = "Ablation: flowcell threshold sweep, stride(8)", .opt = kRtt,
       .variants = {flowcell(16), flowcell(32), flowcell(64), flowcell(128)},
       .fabric = stride8, .keys = {{"flowcell", 10}},
       .columns = {{tput, 10, 2, "tput Gbps"}, {fairness, 10, 3, "fairness"},
                   {rtt_p99, 12, 3, "RTT p99 ms"}, {loss, 12, 4, "loss %%"}},
       .claims = {{"§3.1: 64 KB, the maximum TSO segment; finer flowcells "
                   "multiply reordering and per-flowcell overhead, coarser "
                   "ones collide like flowlets", tput, "flowcell=64KB",
                   kAtLeast, 1, {}}}},
      {.name = "ablation_granularity",
       .title = "Ablation: LB granularity, stride(8), 16 hosts",
       .variants = {{"per-flow (ECMP)", Scheme::kEcmp},
                    {"flowlet 500us", Scheme::kFlowlet},
                    {"flowcell 64KB (Presto)", Scheme::kPresto},
                    {"per-packet", Scheme::kPerPacket}},
       .fabric = stride8, .keys = {{"granularity", 24}},
       .columns = {{tput, 10, 2, "tput Gbps"}, {fairness, 10, 3, "fairness"},
                   {loss, 10, 4, "loss %%"}},
       .footer =
           [](const Points&) {
             std::printf("\n(expected ordering: flowcells ~ line rate; "
                         "per-packet is\nbalanced but capped by per-packet "
                         "receive costs; per-flow\ncollides; flowlets sit "
                         "between)\n");
           },
       .claims = {{"§2.1: per-packet spraying defeats TSO/GRO, per-flow "
                   "hashing collides, flowlets are non-uniform; 64 KB "
                   "flowcells hit the sweet spot", tput,
                   "flowcell 64KB (Presto)", kAtLeast, 1, {}}}},
      {.name = "ablation_gro_timeout",
       .title = "Ablation: Presto GRO hold-timeout policy, stride(8)",
       .opt = {.mice = true},
       .variants = {gro_timeout("adaptive(a=2)", 2.0, 100 * us, 0.5, 0.03),
                    gro_timeout("static 10ms", 1.0, 10'000 * us, 0, 0),
                    gro_timeout("static 50us", 1.0, 50 * us, 0, 0)},
       .fabric = stride8, .keys = {{"variant", 14}},
       .columns = {{tput, 10, 2, "tput Gbps"}, {fct_p50, 12, 2, "FCT p50 ms"},
                   {fct_p99, 12, 2, "FCT p99 ms"},
                   {fct_p999, 12, 2, "FCT p99.9 ms"}},
       .claims = {{"§3.2: a static 10 ms timeout masks reordering but delays "
                   "loss recovery (tail FCT)", fct_p999, "adaptive(a=2)",
                   kAtMost, 1, {"static 10ms"}},
                  {"§3.2: a hair-trigger timeout misfires on reordering and "
                   "exposes TCP to spurious recoveries", tput, "adaptive(a=2)",
                   kAtLeast, 1, {"static 50us"}}}},
      {.name = "ablation_path_selection",
       .title = "Ablation: flowcell path selection + GRO beta rule, stride(8)",
       .opt = kRtt,
       .variants = {path_choice("round-robin (paper)", false, 2.0),
                    path_choice("random per flowcell", true, 2.0),
                    path_choice("round-robin, no beta", false, 1e9)},
       .fabric = stride8, .keys = {{"variant", 24}},
       .columns = {{tput, 10, 2, "tput Gbps"}, {fairness, 10, 3, "fairness"},
                   {rtt_p99, 12, 3, "RTT p99 ms"}, {loss, 10, 4, "loss %%"}},
       .claims = {{"§2.1: round robin assigns flowcells very evenly where "
                   "random selection transiently piles them onto one link",
                   tput, "round-robin (paper)", kAtLeast, 1,
                   {"random per flowcell"}}}},
  };
}

/// Runs one point over the plan's seeds and merges the replicas. With a
/// JsonReporter active the point carries telemetry from every layer and
/// the fabric plane, and is recorded under the label set before the call.
MultiRun run_point(ExperimentConfig cfg,
                   const std::vector<workload::HostPair>& pairs,
                   harness::RunOptions opt, const SeedPlan& plan, int point) {
  JsonReporter* json = JsonReporter::active();
  if (json != nullptr) {
    cfg.telemetry.metrics = true;
    cfg.telemetry.fabric.monitors = true;
    if (cfg.telemetry.fabric.flush_period == 0) {
      cfg.telemetry.fabric.flush_period =
          scaled(5 * sim::kMillisecond, plan.time_scale);
    }
    json->note_run_config(plan.seeds, plan.time_scale);
  }
  if (!plan.trace_base.empty()) {
    cfg.telemetry.timeseries = true;
    cfg.telemetry.span_sample_every = trace_span_every();
  }
  opt.warmup = scaled(opt.warmup, plan.time_scale);
  opt.measure = scaled(opt.measure, plan.time_scale);
  const harness::SweepOptions sweep{.seeds = plan.seeds,
                                    .threads = plan.threads};
  MultiRun agg = harness::run_sweep(
      cfg,
      [&pairs, &opt](const ExperimentConfig& seeded) {
        return harness::run_pairs(seeded, pairs, opt);
      },
      sweep);
  if (json != nullptr) json->record(cfg, agg);
  if (!plan.trace_base.empty()) {
    detail::write_trace_files(plan.trace_base, point, agg);
  }
  return agg;
}

std::string fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// One table line: left-aligned keys, then each column's cells, one per
/// point of `line` (a swept row's columns each open with " |" when there
/// are several), then fig10's fluid Optimal. An empty `line` is the header.
void print_line(const Row& row, const std::vector<std::string>& keys,
                const std::vector<const MultiRun*>& line, double x) {
  const bool swept = row.param != nullptr;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::printf("%s%-*s", i > 0 ? " " : "", row.keys[i].width,
                keys[i].c_str());
  }
  for (const Column& c : row.columns) {
    if (swept && row.columns.size() > 1) std::printf(" |");
    for (std::size_t i = 0; i < (swept ? row.variants.size() : 1); ++i) {
      const std::string cell =
          !line.empty() ? fixed(c.metric(*line[i]), c.precision)
          : swept       ? row.variants[i].name
                        : c.header;
      std::printf(" %*s", c.width, cell.c_str());
    }
  }
  if (row.fluid_optimal != nullptr) {
    const Column& c = row.columns.back();
    const std::string cell =
        line.empty() ? "Optimal" : fixed(row.fluid_optimal(x), c.precision);
    std::printf(" %*s", c.width, cell.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

const std::vector<Row>& figure_rows() {
  static const std::vector<Row> rows = make_rows();
  return rows;
}

const Row* find_row(const std::string& name) {
  for (const Row& row : figure_rows()) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

double Points::value(Metric metric, const std::string& variant,
                     double x) const {
  if (variant == "Optimal" && row.fluid_optimal != nullptr) {
    return row.fluid_optimal(x);
  }
  const std::size_t nv = row.variants.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (row.variants[i % nv].name == variant && row.sweep[i / nv] == x) {
      return metric(runs[i]);
    }
  }
  throw std::invalid_argument(std::string(row.name) + " has no point " +
                              variant + " at " + std::to_string(x));
}

Points run_row(const Row& row, const SeedPlan& plan) {
  const bool swept = row.param != nullptr;
  const std::size_t nv = row.variants.size();
  Points points{row, {}};
  points.runs.reserve(row.sweep.size() * nv);  // `line` points into it
  if (*row.title != '\0') std::printf("%s\n", row.title);
  if (!row.columns.empty()) {
    std::vector<std::string> headers;
    for (const KeyColumn& k : row.keys) headers.emplace_back(k.header);
    print_line(row, headers, {}, 0);
  }
  JsonReporter* json = JsonReporter::active();
  for (double x : row.sweep) {
    std::vector<const MultiRun*> line;
    for (const Variant& v : row.variants) {
      ExperimentConfig cfg;
      cfg.scheme = v.scheme;
      const std::vector<workload::HostPair> pairs = row.fabric(cfg, x);
      if (v.setup) v.setup(cfg);
      if (json != nullptr && row.sweep.size() > 1) {
        json->set_point(v.name + "/" + row.param + "=" +
                            std::to_string(static_cast<unsigned>(x)),
                        {{row.param, x}});
      } else if (json != nullptr) {
        json->set_point(v.name, swept ? JsonReporter::Params{{row.param, x}}
                                      : v.params);
      }
      points.runs.push_back(run_point(cfg, pairs, row.opt, plan,
                                      static_cast<int>(points.runs.size())));
      line.push_back(&points.runs.back());
      if (row.columns.empty() || line.size() < (swept ? nv : 1)) continue;
      std::vector<std::string> keys;
      for (const KeyColumn& k : row.keys) {
        keys.push_back(swept            ? fixed(x * k.scale, k.precision)
                       : v.key.empty() ? v.name
                                       : v.key);
      }
      print_line(row, keys, line, x);
      line.clear();
    }
  }
  if (row.cdf != nullptr) {
    std::vector<std::pair<std::string, const stats::DDSketch*>> series;
    for (std::size_t i = 0; i < points.runs.size(); ++i) {
      series.emplace_back(row.cdf_names.empty() ? row.variants[i % nv].name
                                                : row.cdf_names[i],
                          &points.runs[i].rtt_ms);
    }
    print_cdf_table(row.cdf, "ms", series);
  }
  if (row.footer) row.footer(points);
  return points;
}

std::string check_claim(const Claim& claim, const Points& points) {
  const Row& row = points.row;
  std::vector<std::string> than(claim.than.begin(), claim.than.end());
  for (const Variant& v : row.variants) {
    if (claim.than.empty() && v.name != claim.a) than.push_back(v.name);
  }
  bool checked = false;
  for (double x : row.sweep) {
    if (!std::isnan(claim.at) && x != claim.at) continue;
    checked = true;
    const double a = points.value(claim.metric, claim.a, x);
    for (const std::string& b : than) {
      const double vb = points.value(claim.metric, b, x);
      if (claim.at_least ? a >= claim.k * vb : a <= claim.k * vb) continue;
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s=%g: %s %.4g, %s %.4g x %s %.4g",
                    row.param != nullptr ? row.param : "point", x, claim.a, a,
                    claim.at_least ? "below" : "above", claim.k, b.c_str(),
                    vb);
      return buf;
    }
  }
  if (!checked) throw std::invalid_argument("claim matches no sweep value");
  return "";
}

}  // namespace presto::bench
