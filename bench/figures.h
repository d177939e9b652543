// The paper figures that share one shape, as rows of one table.
//
// fig07–fig16, Tables 1–2 and the four ablations each run a few schemes or
// variants, optionally across one swept fabric parameter or a list of
// workloads, and print a table, CDFs or a footer of the merged points. A
// Row holds all of it — run options, seed series, fabric and pairs or a
// per-seed replica, points, printed columns, CDF series — plus the paper
// claims its points must reproduce. figure_main.cc is built once per row
// name, so each figure keeps its binary; tests/claims_test.cc runs every
// row at reduced scale and checks its claims.
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
inline double fct_p90(const MultiRun& r) { return r.fct_ms.percentile(90); }
inline double fct_p99(const MultiRun& r) { return r.fct_ms.percentile(99); }
inline double fct_p999(const MultiRun& r) { return r.fct_ms.percentile(99.9); }

/// Sets a point's topology for sweep value `x` and returns its elephant pairs.
using Fabric = std::vector<workload::HostPair> (*)(harness::ExperimentConfig&,
                                                   double x);

/// One seed replica of a row that does not run fixed pairs: gets the seeded
/// config, the run options with their run lengths scaled, the sweep value
/// and the time scale (for any other window it runs).
using Replica = harness::RunResult (*)(const harness::ExperimentConfig& cfg,
                                       const harness::RunOptions& opt,
                                       double x, double time_scale);

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

/// A paper claim over a row's merged points: metric(a) >= k * metric(b) +
/// margin (at_least) or <= (!at_least) for every b in `than` (empty: every
/// other variant) at sweep value `at`. `deviation` N > 0 names the
/// EXPERIMENTS.md "Known deviations" entry the reproduction misses it by:
/// claims_test expects such a claim to fail, so a fix shows up.
struct Claim {
  const char* paper;  ///< the paper's statement the threshold comes from
  Metric metric;
  const char* a;
  bool at_least;
  double k;
  std::vector<const char*> than;
  double at = NAN;  ///< NaN: every sweep value
  int deviation = 0;
  double margin = 0;  ///< an additive bound ("within ~350 us")
};

struct Row;

/// A row's merged points in run order: sweep value major, then variant.
struct Points {
  const Row& row;
  std::vector<MultiRun> runs;
  /// The point of `variant` at sweep value `x`.
  const MultiRun& at(const std::string& variant, double x) const;
  /// metric of `variant` at sweep value `x` ("Optimal" reads the fluid
  /// bound of a row that prints one).
  double value(Metric metric, const std::string& variant, double x) const;
};

struct Row {
  const char* name;        ///< binary and JSON bench name
  const char* title = "";  ///< first stdout line; "" prints none
  harness::RunOptions opt = {};
  /// Seed series: replica s runs seed base_seed + seed_stride * s.
  std::uint64_t base_seed = 1000;
  std::uint64_t seed_stride = 77;
  std::vector<Variant> variants;
  Fabric fabric = nullptr;  ///< fixed pairs run by harness::run_pairs
  Replica replica = nullptr;  ///< replaces `fabric` when set
  const char* param = nullptr;  ///< swept parameter; null: one unswept run
  std::vector<double> sweep = {0};  ///< one value: labels carry no suffix
  /// A categorical sweep's names, one per sweep value: the key column and
  /// JSON label suffix ("ECMP/Stride") in place of "<param>=<x>".
  std::vector<const char*> workloads = {};
  std::vector<KeyColumn> keys = {};
  std::vector<Column> columns = {};  ///< each its own " |" group if swept
  double (*fluid_optimal)(double x) = nullptr;  ///< fig10's last column
  const char* cdf = nullptr;  ///< RTT CDF title; null prints none
  std::vector<const char*> cdf_names = {};  ///< default: variant names
  /// Printed after each sweep value's points and its CDF.
  std::function<void(const Points&, double x)> footer = nullptr;
  std::vector<Claim> claims = {};
};

/// The table: fig07–fig16, Tables 1–2 and the four ablations.
const std::vector<Row>& figure_rows();
const Row* find_row(const std::string& name);

/// Runs every point of `row` under `plan`, printing its table to stdout as
/// lines complete and recording each point into the active JsonReporter.
Points run_row(const Row& row, const SeedPlan& plan);

/// Empty when `claim` holds over `points`, else its first counterexample.
std::string check_claim(const Claim& claim, const Points& points);

}  // namespace presto::bench
