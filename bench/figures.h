// The paper figures that share one shape, as rows of one table.
//
// fig07–fig14 and the four ablations each run a few schemes or variants,
// optionally across one swept fabric parameter, and print a table and/or an
// RTT CDF of the merged points. A Row holds all of it — run options, fabric
// and pairs, points, printed columns, CDF series — plus the paper claims its
// points must reproduce. figure_main.cc is built once per row name, so each
// figure keeps its binary; tests/claims_test.cc runs every row at reduced
// scale and checks its claims.
#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace presto::bench {

/// One merged metric of a point, as its JSON point carries it.
using Metric = double (*)(const MultiRun&);
inline double tput(const MultiRun& r) { return r.avg_tput_gbps; }
inline double fairness(const MultiRun& r) { return r.fairness; }
inline double loss(const MultiRun& r) { return r.loss_pct; }
inline double rtt_p99(const MultiRun& r) { return r.rtt_ms.percentile(99); }
inline double rtt_p999(const MultiRun& r) { return r.rtt_ms.percentile(99.9); }
inline double fct_p50(const MultiRun& r) { return r.fct_ms.percentile(50); }
inline double fct_p99(const MultiRun& r) { return r.fct_ms.percentile(99); }
inline double fct_p999(const MultiRun& r) { return r.fct_ms.percentile(99.9); }

/// Sets a point's topology for sweep value `x` and returns its elephant pairs.
using Fabric = std::vector<workload::HostPair> (*)(harness::ExperimentConfig&,
                                                   double x);

/// One scheme or configuration: a column of a swept row, a line of the
/// others.
struct Variant {
  std::string name;  ///< header and JSON label (+ "/<param>=<x>" when swept)
  harness::Scheme scheme = harness::Scheme::kPresto;
  JsonReporter::Params params = {};  ///< JSON params of an unswept row
  std::function<void(harness::ExperimentConfig&)> setup = nullptr;
  std::string key = {};  ///< printed line key when it is not `name`
};

/// A leading column: the variant's key, or in a swept row the sweep value
/// times `scale`, printed left-aligned with `precision` decimals.
struct KeyColumn {
  const char* header;
  int width;
  int precision = 0;
  double scale = 1;
};

/// A value column printed " %<width>.<precision>f". A swept row prints it
/// once per variant, headed by the variant's name.
struct Column {
  Metric metric;
  int width;
  int precision;
  const char* header = "";
};

/// A paper claim over a row's merged points: metric(a) >= k * metric(b)
/// (at_least) or <= (!at_least) for every b in `than` (empty: every other
/// variant) at sweep value `at`. `deviation` N > 0 names the EXPERIMENTS.md
/// "Known deviations" entry the reproduction misses it by: claims_test
/// expects such a claim to fail, so a fix shows up.
struct Claim {
  const char* paper;  ///< the paper's statement the threshold comes from
  Metric metric;
  const char* a;
  bool at_least;
  double k;
  std::vector<const char*> than;
  double at = NAN;  ///< NaN: every sweep value
  int deviation = 0;
};

struct Row;

/// A row's merged points in run order: sweep value major, then variant.
struct Points {
  const Row& row;
  std::vector<MultiRun> runs;
  /// metric of `variant` at sweep value `x` ("Optimal" reads the fluid
  /// bound of a row that prints one).
  double value(Metric metric, const std::string& variant, double x) const;
};

struct Row {
  const char* name;        ///< binary and JSON bench name
  const char* title = "";  ///< first stdout line; "" prints none
  harness::RunOptions opt = {};
  std::vector<Variant> variants;
  Fabric fabric;
  const char* param = nullptr;  ///< swept parameter; null: one unswept run
  std::vector<double> sweep = {0};  ///< one value: labels carry no suffix
  std::vector<KeyColumn> keys = {};
  std::vector<Column> columns = {};  ///< each its own " |" group if swept
  double (*fluid_optimal)(double x) = nullptr;  ///< fig10's last column
  const char* cdf = nullptr;  ///< RTT CDF title; null prints none
  std::vector<const char*> cdf_names = {};  ///< default: variant names
  std::function<void(const Points&)> footer = nullptr;
  std::vector<Claim> claims = {};
};

/// The table: fig07–fig14 and the four ablations.
const std::vector<Row>& figure_rows();
const Row* find_row(const std::string& name);

/// Runs every point of `row` under `plan`, printing its table to stdout as
/// lines complete and recording each point into the active JsonReporter.
Points run_row(const Row& row, const SeedPlan& plan);

/// Empty when `claim` holds over `points`, else its first counterexample.
std::string check_claim(const Claim& claim, const Points& points);

}  // namespace presto::bench
