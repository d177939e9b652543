// Statistics and output helpers shared by the benchmark and its self-test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the "exclusive" method), so a run's figures compare directly with
/// spreads computed over runs in Python.
Quartiles quartiles(std::vector<double> values);

/// Per-run estimate of one rep's CPU time from the laps of every rep
/// (`laps[r][k]`: thread CPU seconds of timing slice k in rep r): the sum
/// over slices of each slice's fastest lap. Neighbour load on a shared host
/// only ever slows a slice down, and it comes and goes within a run, so a
/// slice's minimum over the reps tracks its unloaded cost. If the reps cut
/// different slices it falls back to the first quartile of rep totals.
double rep_cost_estimate(const std::vector<std::vector<double>>& laps);

/// Per-run estimate of one testbed build's CPU time from rounds of builds
/// spread over the run (`rounds[r][j]`: thread CPU seconds of build j in
/// round r; build j builds the same testbed in every round): the median
/// over j of build j's fastest time across the rounds. The minimum drops
/// slow phases of the host, the median drops a round's cold first build.
double build_cost_estimate(const std::vector<std::vector<double>>& rounds);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
