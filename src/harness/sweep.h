// Multi-seed sweep runner: runs N seed replicas of an experiment point on a
// thread pool and merges the results.
//
// Each replica owns its own Simulation/Experiment (the simulator is not
// thread-safe, but replicas share nothing — there is no global mutable state
// in src/), so seeds are embarrassingly parallel. Results are merged in seed
// order regardless of completion order, which reproduces the serial loop's
// floating-point accumulation bit-for-bit: `threads=N` and `threads=1` give
// identical merged numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "harness/runners.h"

namespace presto::harness {

struct SweepOptions {
  /// Seed replicas per point. cfg.seed is overwritten per replica with
  /// base_seed + seed_stride * s (the series the benchmarks always used).
  int seeds = 3;
  std::uint64_t base_seed = 1000;
  std::uint64_t seed_stride = 77;
  /// Worker threads: 0 = hardware_concurrency, 1 = run serially inline.
  unsigned threads = 0;
};

/// Merged view of all replicas plus the per-seed results (seed order).
struct SweepResult {
  double avg_tput_gbps = 0;         ///< Mean over seeds.
  double fairness = 0;              ///< Mean over seeds.
  double loss_pct = 0;              ///< Mean over seeds.
  stats::DDSketch rtt_ms;           ///< Merge of all seeds' sketches.
  stats::DDSketch fct_ms;           ///< Merge of all seeds' sketches.
  std::uint64_t mice_timeouts = 0;  ///< Sum over seeds.
  telemetry::Snapshot telemetry;    ///< Merged (counters sum, gauges max).
  /// fabric_health document of the first seed that produced one (the
  /// per-seed documents stay available via `runs`).
  std::string fabric_health_json;
  std::vector<RunResult> runs;      ///< One entry per seed.
};

/// One seeded replica: receives the config with cfg.seed already set.
using SweepRunFn = std::function<RunResult(const ExperimentConfig&)>;

/// Calls body(i) for i in [0, n) on `threads` workers. threads<=1 (or
/// n<=1) runs inline. The first failing index's exception is rethrown on
/// the calling thread after all workers join.
void for_each_index(int n, unsigned threads,
                    const std::function<void(int)>& body);

/// Runs fn(i) for i in [0, n) like for_each_index and returns what each
/// call returned, in index order.
template <typename Fn>
std::vector<std::invoke_result_t<Fn&, int>> run_indexed(int n,
                                                        unsigned threads,
                                                        Fn&& fn) {
  std::vector<std::invoke_result_t<Fn&, int>> results(
      static_cast<std::size_t>(n > 0 ? n : 0));
  for_each_index(n, threads, [&](int i) {
    results[static_cast<std::size_t>(i)] = fn(i);
  });
  return results;
}

/// Runs `run` once per seed replica of `base` and merges the results.
SweepResult run_sweep(const ExperimentConfig& base, const SweepRunFn& run,
                      const SweepOptions& opt = {});

}  // namespace presto::harness
