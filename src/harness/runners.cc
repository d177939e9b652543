#include "harness/runners.h"

#include <map>
#include <memory>

#include "workload/trace_dist.h"

namespace presto::harness {
namespace {

/// Shared machinery: mice + RTT probe apps over a set of pairs.
struct ProbeSet {
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> mice;
  std::vector<std::unique_ptr<workload::PeriodicRpcApp>> rtt;
  std::vector<workload::RpcChannel*> mice_channels;

  void attach(Experiment& ex, const std::vector<workload::HostPair>& pairs,
              const RunOptions& opt, sim::Time stop_at) {
    std::size_t i = 0;
    for (const auto& [src, dst] : pairs) {
      if (opt.mice) {
        auto& rpc = ex.open_rpc(src, dst);
        mice_channels.push_back(&rpc);
        auto app = std::make_unique<workload::PeriodicRpcApp>(
            ex.sim(), rpc, opt.mice_bytes, opt.mice_interval,
            /*start_at=*/opt.mice_interval * (i + 1) / (pairs.size() + 1),
            stop_at, /*ping_pong=*/true);
        app->set_measure_from(opt.warmup);
        mice.push_back(std::move(app));
      }
      if (opt.rtt_probes) {
        auto& rpc = ex.open_rpc(src, dst);
        auto app = std::make_unique<workload::PeriodicRpcApp>(
            ex.sim(), rpc, 64, opt.rtt_interval,
            /*start_at=*/opt.rtt_interval * (i + 1) / (pairs.size() + 1),
            stop_at, /*ping_pong=*/true);
        app->set_measure_from(opt.warmup);
        rtt.push_back(std::move(app));
      }
      ++i;
    }
  }

  void collect(RunResult& r) const {
    for (const auto& app : mice) {
      for (double fct_ns : app->fcts().values()) {
        r.fct_ms.add(fct_ns / 1e6);
      }
    }
    for (const auto& app : rtt) {
      for (double rtt_ns : app->fcts().values()) {
        r.rtt_ms.add(rtt_ns / 1e6);
      }
    }
    for (const workload::RpcChannel* ch : mice_channels) {
      r.mice_timeouts += ch->timeouts();
    }
  }
};

}  // namespace

RunResult run_pairs(const ExperimentConfig& cfg,
                    const std::vector<workload::HostPair>& pairs,
                    const RunOptions& opt) {
  Experiment ex(cfg);
  const sim::Time stop_at = opt.warmup + opt.measure;

  std::vector<workload::ElephantApp*> elephants;
  if (opt.elephants) {
    for (const auto& [src, dst] : pairs) {
      elephants.push_back(&ex.add_elephant(src, dst, opt.elephant_bytes));
    }
  }
  ProbeSet probes;
  probes.attach(ex, pairs, opt, stop_at);

  ex.sim().run_until(opt.warmup);
  std::vector<std::uint64_t> delivered_at_warmup;
  delivered_at_warmup.reserve(elephants.size());
  for (auto* e : elephants) delivered_at_warmup.push_back(e->delivered());
  const Experiment::Counters c0 = ex.switch_counters();

  ex.sim().run_until(stop_at);
  const Experiment::Counters c1 = ex.switch_counters();

  RunResult r;
  const double secs = sim::to_seconds(opt.measure);
  for (std::size_t i = 0; i < elephants.size(); ++i) {
    const double bits =
        8.0 * static_cast<double>(elephants[i]->delivered() -
                                  delivered_at_warmup[i]);
    r.per_flow_gbps.push_back(bits / secs / 1e9);
  }
  if (!r.per_flow_gbps.empty()) {
    double sum = 0;
    for (double t : r.per_flow_gbps) sum += t;
    r.avg_tput_gbps = sum / static_cast<double>(r.per_flow_gbps.size());
    r.fairness = stats::jain_index(r.per_flow_gbps);
  }
  const std::uint64_t enq = c1.enqueued - c0.enqueued;
  const std::uint64_t drop = c1.dropped - c0.dropped;
  r.loss_pct = enq == 0 ? 0.0
                        : 100.0 * static_cast<double>(drop) /
                              static_cast<double>(enq + drop);
  probes.collect(r);
  collect_end_of_run(ex, r);
  return r;
}

RunResult run_shuffle(const ExperimentConfig& cfg,
                      std::uint64_t transfer_bytes, const RunOptions& opt) {
  Experiment ex(cfg);
  const sim::Time stop_at = opt.warmup + opt.measure;
  sim::Rng rng = ex.fork_rng();
  const auto n = static_cast<std::uint32_t>(ex.servers().size());
  auto order = workload::shuffle_order(n, rng);

  // Per-host shuffle driver: two concurrent transfers, next destination
  // starts when one finishes. Completed-transfer throughputs are the Fig 15
  // "elephant throughput" samples.
  struct HostState {
    std::vector<net::HostId> queue;
    std::size_t next = 0;
  };
  auto states = std::make_shared<std::vector<HostState>>(n);
  auto tputs = std::make_shared<std::vector<double>>();
  auto apps = std::make_shared<std::vector<workload::ElephantApp*>>();
  auto warmup = opt.warmup;

  // start_next must outlive this scope (captured by completion callbacks).
  auto start_next = std::make_shared<std::function<void(net::HostId)>>();
  *start_next = [&ex, states, tputs, apps, warmup, transfer_bytes,
                 start_next](net::HostId h) {
    HostState& st = (*states)[h];
    if (st.next >= st.queue.size()) return;
    const net::HostId dst = st.queue[st.next++];
    const sim::Time begin = ex.sim().now();
    apps->push_back(&ex.add_elephant(h, dst, transfer_bytes,
                    [tputs, warmup, begin, transfer_bytes, start_next, h,
                     &ex](sim::Time fct) {
                      if (begin >= warmup && fct > 0) {
                        tputs->push_back(8.0 *
                                         static_cast<double>(transfer_bytes) /
                                         sim::to_seconds(fct) / 1e9);
                      }
                      (*start_next)(h);
                    }));
  };
  for (net::HostId h = 0; h < n; ++h) {
    (*states)[h].queue = order[h];
    (*start_next)(h);
    (*start_next)(h);  // two at a time, as in the paper's shuffle
  }

  ProbeSet probes;
  const auto mice_pairs = workload::stride_pairs(n, 1);
  probes.attach(ex, mice_pairs, opt, stop_at);

  ex.sim().run_until(opt.warmup);
  const Experiment::Counters c0 = ex.switch_counters();
  ex.sim().run_until(stop_at);
  const Experiment::Counters c1 = ex.switch_counters();
  *start_next = nullptr;  // break the self-capture cycle

  RunResult r;
  r.per_flow_gbps = *tputs;  // per completed transfer (fairness view)
  if (!r.per_flow_gbps.empty()) {
    r.fairness = stats::jain_index(r.per_flow_gbps);
  }
  // Shuffle is receiver-bottlenecked (§6): the headline number is the
  // aggregate per-host receive rate, not the mean per-transfer rate (which
  // over-weights transfers that ran with little competition).
  std::uint64_t delivered = 0;
  for (auto* a : *apps) delivered += a->delivered();
  r.avg_tput_gbps = 8.0 * static_cast<double>(delivered) /
                    sim::to_seconds(stop_at) / 1e9 /
                    static_cast<double>(n);
  const std::uint64_t enq = c1.enqueued - c0.enqueued;
  const std::uint64_t drop = c1.dropped - c0.dropped;
  r.loss_pct = enq == 0 ? 0.0
                        : 100.0 * static_cast<double>(drop) /
                              static_cast<double>(enq + drop);
  probes.collect(r);
  collect_end_of_run(ex, r);
  return r;
}

RunResult run_trace(const ExperimentConfig& cfg, sim::Time warmup,
                    sim::Time measure, sim::Time drain) {
  Experiment ex(cfg);
  sim::Rng rng = ex.fork_rng();
  const workload::TraceFlowDist dist(10.0);
  const double mean_gap_s = dist.mean_bytes() * 8.0 / 1.2e9;
  const sim::Time stop = warmup + measure;
  const auto n = static_cast<std::uint32_t>(ex.servers().size());

  RunResult r;
  stats::Samples elephants;
  std::map<std::pair<net::HostId, net::HostId>, workload::RpcChannel*>
      channels;
  std::vector<sim::Rng> host_rngs;
  host_rngs.reserve(n);
  // One Poisson arrival process per server, each on its own RNG stream.
  std::function<void(net::HostId, sim::Rng&)> arrive =
      [&](net::HostId src, sim::Rng& host_rng) {
        if (ex.sim().now() >= stop) return;
        net::HostId dst;
        do {
          dst = static_cast<net::HostId>(host_rng.below(n));
        } while (dst == src || ex.logical_pod(dst) == ex.logical_pod(src));
        const std::uint64_t bytes = dist.sample(host_rng);
        const sim::Time issued = ex.sim().now();
        workload::RpcChannel*& channel = channels[{src, dst}];
        if (channel == nullptr) channel = &ex.open_rpc(src, dst);
        channel->issue(bytes, [&r, &elephants, warmup, issued,
                               bytes](sim::Time fct) {
          if (issued < warmup) return;
          if (bytes < 100'000) {
            r.fct_ms.add(sim::to_millis(fct));
          } else if (bytes > 1'000'000) {
            elephants.add(8.0 * static_cast<double>(bytes) /
                          static_cast<double>(fct));
          }
        });
        ex.sim().schedule(
            static_cast<sim::Time>(host_rng.exponential(mean_gap_s) * 1e9),
            [&arrive, src, &host_rng] { arrive(src, host_rng); });
      };
  for (net::HostId src : ex.servers()) {
    sim::Rng& host_rng = host_rngs.emplace_back(rng.fork());
    ex.sim().schedule(
        static_cast<sim::Time>(rng.exponential(mean_gap_s) * 1e9),
        [&arrive, src, &host_rng] { arrive(src, host_rng); });
  }
  ex.sim().run_until(stop + drain);

  r.per_flow_gbps = elephants.values();
  r.avg_tput_gbps = elephants.mean();
  collect_end_of_run(ex, r);
  return r;
}

void collect_end_of_run(Experiment& ex, RunResult& r) {
  r.executed_events = ex.sim().executed();
  r.telemetry = ex.telemetry_snapshot();
  r.fabric_health_json = ex.fabric_health_json();
  if (ex.flight_recorder_enabled()) {
    r.trace_json = ex.export_trace_json();
    r.timeseries_csv = ex.export_timeseries_csv();
  }
}

}  // namespace presto::harness
