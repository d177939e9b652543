#include "figures.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

namespace presto::bench {
namespace {

using harness::ExperimentConfig;
using harness::RunOptions;
using harness::RunResult;
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

/// §6's synthetic workloads on the Figure 3 Clos, as categorical sweep
/// values.
constexpr double kShuffle = 0, kRandom = 1, kStride = 2, kBijection = 3;

/// Shuffle transfer size: the paper moves 1 GB per peer; 12 MB finishes in
/// simulated milliseconds and still spans thousands of flowcells.
constexpr std::uint64_t kShuffleBytes = 12'000'000;

/// The Figure 3 Clos's leaves hold 4 hosts each.
net::SwitchId leaf_of(net::HostId h) { return h / 4; }

/// Figure 15's replica: random pairs and bijections are drawn per seed.
RunResult synthetic(const ExperimentConfig& cfg, const RunOptions& opt,
                    double wl, double) {
  if (wl == kShuffle) return harness::run_shuffle(cfg, kShuffleBytes, opt);
  if (wl == kStride) {
    return harness::run_pairs(cfg, workload::stride_pairs(16, 8), opt);
  }
  sim::Rng rng(cfg.seed ^ 0xABCDEF);
  return harness::run_pairs(
      cfg,
      wl == kRandom ? workload::random_pairs(16, leaf_of, rng)
                    : workload::random_bijection(16, leaf_of, rng),
      opt);
}

/// Figure 16's replica: every seed runs the same bijection.
RunResult mice_fct(const ExperimentConfig& cfg, const RunOptions& opt,
                   double wl, double) {
  if (wl == kShuffle) return harness::run_shuffle(cfg, kShuffleBytes, opt);
  sim::Rng rng(4242);
  return harness::run_pairs(
      cfg,
      wl == kStride ? workload::stride_pairs(16, 8)
                    : workload::random_bijection(16, leaf_of, rng),
      opt);
}

/// Table 1's replica: the trace-driven workload, drained for 200 ms.
RunResult trace(const ExperimentConfig& cfg, const RunOptions& opt, double,
                double time_scale) {
  return harness::run_trace(cfg, opt.warmup, opt.measure,
                            scaled(200 * sim::kMillisecond, time_scale));
}

/// Table 2's replica (§6): one remote user per spine behind a 100 Mbps WAN
/// link. Every server sends a web object (log-uniform 500 B-50 KB) to a
/// random remote user every 2 ms over a persistent plain-TCP connection
/// (the paper balances north-south traffic with ECMP whatever the
/// east-west scheme), while stride(8) elephants and the options' mice run
/// east-west.
RunResult north_south(const ExperimentConfig& base, const RunOptions& opt,
                      double, double) {
  ExperimentConfig cfg = base;
  cfg.remote_users_per_spine = 1;
  harness::Experiment ex(cfg);
  sim::Rng rng = ex.fork_rng();
  const sim::Time stop = opt.warmup + opt.measure;

  const std::vector<workload::HostPair> pairs = workload::stride_pairs(16, 8);
  std::vector<workload::ElephantApp*> elephants;
  for (const auto& [s, d] : pairs) {
    elephants.push_back(&ex.add_elephant(s, d, 0));
  }
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> mice;
  std::vector<workload::RpcChannel*> mice_channels;
  for (const auto& [s, d] : pairs) {
    workload::RpcChannel& rpc = ex.open_rpc(s, d);
    mice_channels.push_back(&rpc);
    mice.push_back(std::make_unique<workload::PeriodicRpcApp>(
        ex.sim(), rpc, opt.mice_bytes, opt.mice_interval,
        sim::kMillisecond * static_cast<sim::Time>(mice.size() + 1) / 4,
        stop, /*ping_pong=*/true));
    mice.back()->set_measure_from(opt.warmup);
  }

  std::map<std::pair<net::HostId, net::HostId>,
           std::unique_ptr<workload::ByteChannel>>
      web;
  sim::Rng web_rng = rng.fork();
  const std::vector<net::HostId>& remotes = ex.remote_users();
  std::function<void(net::HostId)> send_object = [&](net::HostId src) {
    if (ex.sim().now() >= stop) return;
    const net::HostId remote = remotes[web_rng.below(remotes.size())];
    const auto bytes =
        static_cast<std::uint64_t>(500.0 * std::pow(100.0, web_rng.uniform()));
    std::unique_ptr<workload::ByteChannel>& channel = web[{src, remote}];
    if (channel == nullptr) {
      channel = ex.open_channel(src, remote, /*allow_mptcp=*/false);
    }
    channel->send(bytes);
    ex.sim().schedule(2 * sim::kMillisecond,
                      [&send_object, src] { send_object(src); });
  };
  for (net::HostId src : ex.servers()) {
    ex.sim().schedule(
        static_cast<sim::Time>(web_rng.below(2000)) * sim::kMicrosecond,
        [&send_object, src] { send_object(src); });
  }

  ex.sim().run_until(opt.warmup);
  std::vector<std::uint64_t> delivered;
  for (const workload::ElephantApp* e : elephants) {
    delivered.push_back(e->delivered());
  }
  ex.sim().run_until(stop);

  RunResult r;
  double sum = 0;
  for (std::size_t k = 0; k < elephants.size(); ++k) {
    r.per_flow_gbps.push_back(
        8.0 * static_cast<double>(elephants[k]->delivered() - delivered[k]) /
        sim::to_seconds(opt.measure) / 1e9);
    sum += r.per_flow_gbps.back();
  }
  r.avg_tput_gbps = sum / static_cast<double>(elephants.size());
  r.fairness = stats::jain_index(r.per_flow_gbps);
  for (const auto& app : mice) {
    for (double fct_ns : app->fcts().values()) r.fct_ms.add(fct_ns / 1e6);
  }
  for (const workload::RpcChannel* ch : mice_channels) {
    r.mice_timeouts += ch->timeouts();
  }
  harness::collect_end_of_run(ex, r);
  return r;
}

/// Sweep value `x`'s name in a categorical sweep; null in a numeric one.
const char* workload_name(const Row& row, double x) {
  if (row.workloads.empty()) return nullptr;
  const auto i = std::find(row.sweep.begin(), row.sweep.end(), x);
  return row.workloads[static_cast<std::size_t>(i - row.sweep.begin())];
}

/// Table 1's elephant throughput: the mean over every seed's elephants.
double elephant_tput(const MultiRun& r) {
  double sum = 0;
  std::size_t n = 0;
  for (const RunResult& run : r.runs) {
    for (double g : run.per_flow_gbps) {
      sum += g;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

/// Prints each variant's `sketch` at sweep value `x` as one CDF table.
void print_cdf(const std::string& title, const Points& p, double x,
               const stats::DDSketch MultiRun::*sketch,
               const std::vector<const char*>& names) {
  std::vector<std::pair<std::string, const stats::DDSketch*>> series;
  for (std::size_t i = 0; i < p.row.variants.size(); ++i) {
    series.emplace_back(names.empty() ? p.row.variants[i].name : names[i],
                        &(p.at(p.row.variants[i].name, x).*sketch));
  }
  print_cdf_table(title, "ms", series);
}

/// Tables 1 and 2: mice FCT percentiles of each of `rivals` normalized to
/// ECMP's. A percentile above 100 ms of a scheme whose mice hit an RTO is
/// a min-RTO event and prints as TIMEOUT.
void print_normalized(const Points& p, const std::vector<const char*>& rivals) {
  std::printf("normalized to ECMP (negative = shorter FCT)\n\n");
  std::printf("%-12s %8s", "Percentile", "ECMP");
  for (const char* name : rivals) std::printf(" %9s", name);
  std::printf("\n");
  const MultiRun& ecmp = p.at("ECMP", 0);
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    const double base = ecmp.fct_ms.percentile(pct);
    std::printf("%-12.1f %8.1f", pct, 1.0);
    for (const char* name : rivals) {
      const MultiRun& r = p.at(name, 0);
      const double v = r.fct_ms.percentile(pct);
      if (pct > 99.0 && r.mice_timeouts > 0 && v > 100.0) {
        std::printf("  %8s", "TIMEOUT");
      } else {
        std::printf("  %+7.0f%%", base > 0 ? 100.0 * (v - base) / base : 0.0);
      }
    }
    std::printf("   (ECMP: %.2f ms)\n", base);
  }
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
// numbers: "within a few percent" reads 5%, "within 1-4%" reads 4%, a range
// of gains or cuts reads its weaker end, "9.3 vs 8.9 Gbps" reads 9.3 / 8.9,
// "within ~350 us" is additive, and a bare ordering reads 1. Each is
// stated in the direction the paper argues it: Presto against a rival or
// Optimal. Absolute levels are not claims (EXPERIMENTS.md: the comparisons
// are the reproduction target). RTT tails are p99 unless the paper names
// p99.9.
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
           [](const Points& p, double) {
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
      {.name = "fig15_synthetic_tput",
       .title = "Figure 15: avg elephant throughput (Gbps), 16 hosts, Clos",
       .base_seed = 2000, .seed_stride = 31, .variants = headline,
       .replica = synthetic, .param = "workload",
       .sweep = {kShuffle, kRandom, kStride, kBijection},
       .workloads = {"Shuffle", "Random", "Stride", "Bijection"},
       .keys = {{"workload", 10}}, .columns = {{tput, 10, 2}},
       .claims = {{"Presto lands within 1-4% of Optimal on every workload",
                   tput, "Presto", kAtLeast, 0.96, {"Optimal"}, kShuffle},
                  {"Presto lands within 1-4% of Optimal on every workload",
                   tput, "Presto", kAtLeast, 0.96, {"Optimal"}, kRandom},
                  {"Presto lands within 1-4% of Optimal on every workload",
                   tput, "Presto", kAtLeast, 0.96, {"Optimal"}, kStride, 9},
                  {"Presto lands within 1-4% of Optimal on every workload",
                   tput, "Presto", kAtLeast, 0.96, {"Optimal"}, kBijection,
                   9},
                  {"Presto improves on ECMP by 38-72% (non-shuffle)", tput,
                   "Presto", kAtLeast, 1.38, {"ECMP"}, kRandom},
                  {"Presto improves on ECMP by 38-72% (non-shuffle)", tput,
                   "Presto", kAtLeast, 1.38, {"ECMP"}, kStride, 9},
                  {"Presto improves on ECMP by 38-72% (non-shuffle)", tput,
                   "Presto", kAtLeast, 1.38, {"ECMP"}, kBijection},
                  {"Presto improves on MPTCP by 17-28% (non-shuffle)", tput,
                   "Presto", kAtLeast, 1.17, {"MPTCP"}, kRandom, 9},
                  {"Presto improves on MPTCP by 17-28% (non-shuffle)", tput,
                   "Presto", kAtLeast, 1.17, {"MPTCP"}, kStride},
                  {"Presto improves on MPTCP by 17-28% (non-shuffle)", tput,
                   "Presto", kAtLeast, 1.17, {"MPTCP"}, kBijection}}},
      {.name = "fig16_mice_fct",
       .opt = {.measure = 500 * sim::kMillisecond, .mice = true},
       .base_seed = 3000, .seed_stride = 13, .variants = headline,
       .replica = mice_fct, .param = "workload",
       .sweep = {kStride, kBijection, kShuffle},
       .workloads = {"stride(8)", "random bijection", "shuffle"},
       .footer =
           [](const Points& p, double x) {
             print_cdf(std::string("Figure 16: mice FCT, ") +
                           workload_name(p.row, x),
                       p, x, &MultiRun::fct_ms, {});
             std::printf("mice RTOs:");
             for (const Variant& v : p.row.variants) {
               std::printf(" %s=%llu", v.name.c_str(),
                           static_cast<unsigned long long>(
                               p.at(v.name, x).mice_timeouts));
             }
             std::printf("\n");
           },
       .claims = {{"Presto's tail FCT tracks Optimal within ~350 us", fct_p999,
                   "Presto", kAtMost, 1, {"Optimal"}, kStride, 10, 0.35},
                  {"Presto's tail FCT tracks Optimal within ~350 us", fct_p999,
                   "Presto", kAtMost, 1, {"Optimal"}, kBijection, 10, 0.35},
                  {"ECMP's 99.9th percentile is ~7.5x worse", fct_p999,
                   "Presto", kAtMost, 1 / 7.5, {"ECMP"}, kStride},
                  {"ECMP's 99.9th percentile is ~7.5x worse", fct_p999,
                   "Presto", kAtMost, 1 / 7.5, {"ECMP"}, kBijection},
                  {"MPTCP suffers min-RTO (200 ms) timeouts", fct_p999,
                   "Presto", kAtMost, 1, {"MPTCP"}, kStride},
                  {"MPTCP suffers min-RTO (200 ms) timeouts", fct_p999,
                   "Presto", kAtMost, 1, {"MPTCP"}, kBijection},
                  {"under shuffle the receiver port dominates: ECMP and "
                   "Presto within 10% of each other", fct_p999, "Presto",
                   kAtMost, 1.10, {"ECMP"}, kShuffle}}},
      // The trace's flows under 100 KB are the mice.
      {.name = "table1_trace_fct",
       .title = "Table 1: mice (<100 KB) FCT in trace-driven workload,",
       .opt = {.measure = 1500 * sim::kMillisecond, .mice = true},
       .base_seed = 7000, .seed_stride = 11,
       .variants = {scheme(Scheme::kEcmp), scheme(Scheme::kOptimal),
                    scheme(Scheme::kPresto)},
       .replica = trace,
       .footer =
           [](const Points& p, double) {
             print_normalized(p, {"Optimal", "Presto"});
             std::printf("\nAvg elephant (>1 MB) throughput (Gbps): ECMP "
                         "%.2f, Optimal %.2f, Presto %.2f\n",
                         p.value(elephant_tput, "ECMP", 0),
                         p.value(elephant_tput, "Optimal", 0),
                         p.value(elephant_tput, "Presto", 0));
             std::printf("(paper: Presto within 2%% of Optimal, >10%% over "
                         "ECMP)\n");
           },
       .claims = {{"Presto cuts mice FCT vs ECMP by 9% at the 50th "
                   "percentile", fct_p50, "Presto", kAtMost, 0.91, {"ECMP"},
                   kAll, 11},
                  {"Presto cuts mice FCT vs ECMP by 32% at the 90th "
                   "percentile", fct_p90, "Presto", kAtMost, 0.68, {"ECMP"},
                   kAll, 11},
                  {"Presto cuts mice FCT vs ECMP by 56% at the 99th "
                   "percentile", fct_p99, "Presto", kAtMost, 0.44, {"ECMP"},
                   kAll, 11},
                  {"Presto cuts mice FCT vs ECMP by 60% at the 99.9th "
                   "percentile", fct_p999, "Presto", kAtMost, 0.40, {"ECMP"},
                   kAll, 11},
                  {"elephants: Presto within 2% of Optimal", elephant_tput,
                   "Presto", kAtLeast, 0.98, {"Optimal"}, kAll, 11},
                  {"elephants: Presto >10% over ECMP", elephant_tput,
                   "Presto", kAtLeast, 1.10, {"ECMP"}}}},
      {.name = "table2_north_south",
       .title = "Table 2: east-west mice FCT with north-south cross traffic,",
       .opt = {.measure = 500 * sim::kMillisecond, .mice = true},
       .base_seed = 8000, .seed_stride = 17, .variants = headline,
       .replica = north_south,
       .footer =
           [](const Points& p, double) {
             print_normalized(p, {"Optimal", "Presto", "MPTCP"});
             std::printf("\nAvg east-west throughput (Gbps): ECMP %.1f, "
                         "MPTCP %.1f, Presto %.1f, Optimal %.1f\n",
                         p.value(tput, "ECMP", 0), p.value(tput, "MPTCP", 0),
                         p.value(tput, "Presto", 0),
                         p.value(tput, "Optimal", 0));
             std::printf("(paper: 5.7 / 7.4 / 8.2 / 8.9 Gbps)\n");
           },
       .claims = {{"east-west throughput: Presto 8.2 Gbps vs ECMP 5.7", tput,
                   "Presto", kAtLeast, 8.2 / 5.7, {"ECMP"}, kAll, 12},
                  {"east-west throughput: Presto 8.2 Gbps vs MPTCP 7.4", tput,
                   "Presto", kAtLeast, 8.2 / 7.4, {"MPTCP"}},
                  {"east-west throughput: Presto 8.2 Gbps vs Optimal 8.9",
                   tput, "Presto", kAtLeast, 8.2 / 8.9, {"Optimal"}},
                  {"Presto cuts tail mice FCT by ~86-87% vs ECMP", fct_p99,
                   "Presto", kAtMost, 0.14, {"ECMP"}, kAll, 12},
                  {"Presto cuts tail mice FCT by ~86-87% vs ECMP", fct_p999,
                   "Presto", kAtMost, 0.14, {"ECMP"}},
                  {"MPTCP hits min-RTO timeouts at the 99.9th percentile",
                   fct_p999, "Presto", kAtMost, 1, {"MPTCP"}}}},
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
           [](const Points&, double) {
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

/// Runs one point of `row` at sweep value `x` over the plan's seeds and
/// merges the replicas. With a JsonReporter active the point carries
/// telemetry from every layer and the fabric plane, and is recorded under
/// the label set before the call.
MultiRun run_point(const Row& row, ExperimentConfig cfg,
                   const std::vector<workload::HostPair>& pairs, double x,
                   const SeedPlan& plan, int point) {
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
  RunOptions opt = row.opt;
  opt.warmup = scaled(opt.warmup, plan.time_scale);
  opt.measure = scaled(opt.measure, plan.time_scale);
  const harness::SweepOptions sweep{.seeds = plan.seeds,
                                    .base_seed = row.base_seed,
                                    .seed_stride = row.seed_stride,
                                    .threads = plan.threads};
  MultiRun agg = harness::run_sweep(
      cfg,
      [&](const ExperimentConfig& seeded) {
        return row.replica != nullptr
                   ? row.replica(seeded, opt, x, plan.time_scale)
                   : harness::run_pairs(seeded, pairs, opt);
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

const MultiRun& Points::at(const std::string& variant, double x) const {
  const std::size_t nv = row.variants.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (row.variants[i % nv].name == variant && row.sweep[i / nv] == x) {
      return runs[i];
    }
  }
  throw std::invalid_argument(std::string(row.name) + " has no point " +
                              variant + " at " + std::to_string(x));
}

double Points::value(Metric metric, const std::string& variant,
                     double x) const {
  if (variant == "Optimal" && row.fluid_optimal != nullptr) {
    return row.fluid_optimal(x);
  }
  return metric(at(variant, x));
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
  for (std::size_t xi = 0; xi < row.sweep.size(); ++xi) {
    const double x = row.sweep[xi];
    std::vector<const MultiRun*> line;
    for (const Variant& v : row.variants) {
      ExperimentConfig cfg;
      cfg.scheme = v.scheme;
      const std::vector<workload::HostPair> pairs =
          row.fabric != nullptr ? row.fabric(cfg, x)
                                : std::vector<workload::HostPair>{};
      if (v.setup) v.setup(cfg);
      if (json != nullptr && !row.workloads.empty()) {
        json->set_point(v.name + "/" + row.workloads[xi]);
      } else if (json != nullptr && row.sweep.size() > 1) {
        json->set_point(v.name + "/" + row.param + "=" +
                            std::to_string(static_cast<unsigned>(x)),
                        {{row.param, x}});
      } else if (json != nullptr) {
        json->set_point(v.name, swept ? JsonReporter::Params{{row.param, x}}
                                      : v.params);
      }
      points.runs.push_back(run_point(row, cfg, pairs, x, plan,
                                      static_cast<int>(points.runs.size())));
      line.push_back(&points.runs.back());
      if (row.columns.empty() || line.size() < (swept ? nv : 1)) continue;
      std::vector<std::string> keys;
      for (const KeyColumn& k : row.keys) {
        if (!swept) {
          keys.push_back(v.key.empty() ? v.name : v.key);
        } else if (!row.workloads.empty()) {
          keys.push_back(row.workloads[xi]);
        } else {
          keys.push_back(fixed(x * k.scale, k.precision));
        }
      }
      print_line(row, keys, line, x);
      line.clear();
    }
    if (row.cdf != nullptr) {
      print_cdf(row.cdf, points, x, &MultiRun::rtt_ms, row.cdf_names);
    }
    if (row.footer) row.footer(points, x);
  }
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
      const double bound = claim.k * vb + claim.margin;
      if (claim.at_least ? a >= bound : a <= bound) continue;
      char at[32];
      std::snprintf(at, sizeof at, "%g", x);
      const char* name = workload_name(row, x);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s=%s: %s %.4g, %s %.4g x %s %.4g + %g",
                    row.param != nullptr ? row.param : "point",
                    name != nullptr ? name : at, claim.a, a,
                    claim.at_least ? "below" : "above", claim.k, b.c_str(),
                    vb, claim.margin);
      return buf;
    }
  }
  if (!checked) throw std::invalid_argument("claim matches no sweep value");
  return "";
}

}  // namespace presto::bench
