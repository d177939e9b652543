// Shared experiment drivers used by the per-figure benchmark binaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "stats/ddsketch.h"
#include "workload/patterns.h"

namespace presto::harness {

struct RunOptions {
  sim::Time warmup = 100 * sim::kMillisecond;
  sim::Time measure = 400 * sim::kMillisecond;

  /// Elephant transfer size; 0 = continuous for the whole run.
  std::uint64_t elephant_bytes = 0;
  bool elephants = true;

  /// Mice flows: `mice_bytes` requests + 64 B app-level ACK (§4).
  bool mice = false;
  std::uint64_t mice_bytes = 50 * 1000;
  sim::Time mice_interval = 5 * sim::kMillisecond;

  /// RTT probes (sockperf-style single-packet ping-pong).
  bool rtt_probes = false;
  sim::Time rtt_interval = 1 * sim::kMillisecond;
};

struct RunResult {
  double avg_tput_gbps = 0;            ///< Mean per-elephant goodput.
  std::vector<double> per_flow_gbps;   ///< One entry per elephant.
  double fairness = 1.0;               ///< Jain index over per_flow_gbps.
  double loss_pct = 0;                 ///< Switch drops / enqueued * 100.
  stats::DDSketch rtt_ms;              ///< Probe round-trip times (sketch).
  stats::DDSketch fct_ms;              ///< Mice flow completion times.
  std::uint64_t mice_timeouts = 0;     ///< RTOs on mice connections.
  /// Simulator events executed over the whole run (scheduler-identity
  /// digest: any change to event ordering or count shows up here).
  std::uint64_t executed_events = 0;
  /// End-of-run telemetry (empty unless cfg.telemetry enabled it).
  telemetry::Snapshot telemetry;
  /// Flight-recorder exports (empty unless cfg.telemetry enabled the
  /// sampler/spans). Rendered inside the run so sweep replicas can write
  /// per-seed files without touching the (destroyed) Experiment.
  std::string trace_json;
  std::string timeseries_csv;
  /// fabric_health document (empty unless cfg.telemetry.fabric.monitors).
  std::string fabric_health_json;
};

/// Runs fixed sender->receiver pairs (stride / random / bijection / custom).
RunResult run_pairs(const ExperimentConfig& cfg,
                    const std::vector<workload::HostPair>& pairs,
                    const RunOptions& opt);

/// Hadoop-style shuffle: every server sends `transfer_bytes` to every other
/// server in random order, two transfers at a time. Elephant throughput is
/// reported per completed transfer; mice run on stride(1) pairs.
RunResult run_shuffle(const ExperimentConfig& cfg,
                      std::uint64_t transfer_bytes, const RunOptions& opt);

/// Trace-driven workload (Table 1, §6): every server draws flow sizes from
/// workload::TraceFlowDist (x10) with Poisson gaps for 1.2 Gbps offered
/// load, and sends each flow to a random server in another rack over a
/// long-lived RPC channel per (src, dst) pair, so mice can queue behind
/// elephants. Flows start until warmup + measure and the run goes on for
/// `drain`; flows issued from `warmup` on are measured: mice (<100 KB) FCTs
/// in fct_ms, elephant (>1 MB) throughputs (Gbps) in per_flow_gbps and
/// their mean in avg_tput_gbps.
RunResult run_trace(const ExperimentConfig& cfg, sim::Time warmup,
                    sim::Time measure, sim::Time drain);

/// Fills what every runner reports once its run ends: executed events,
/// telemetry, the fabric_health document and, with the flight recorder
/// on, its trace and time-series exports.
void collect_end_of_run(Experiment& ex, RunResult& r);

}  // namespace presto::harness
