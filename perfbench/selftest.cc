// Self-tests for the benchmark's own code: span arithmetic, the per-run
// estimator, the metric-name charset, and failure accounting on a planted
// defect. Prints one line per check; exits non-zero if any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void span_self_time() {
  // rep [0,120) > sim.run [10,100) > {switch_rx [20,50), host.rx [60,70)}
  Tracer t;
  t.begin(Layer::kRep, 0, 0);
  t.begin(Layer::kSimRun, 10, 0);
  t.begin(Layer::kSwitchRx, 20, 1);
  t.end(50, 3);
  t.begin(Layer::kHostRx, 60, 3);
  t.end(70, 3);
  t.end(100, 5);
  t.end(120, 6);
  const LayerTotals& rep = t.totals(Layer::kRep);
  const LayerTotals& run = t.totals(Layer::kSimRun);
  const LayerTotals& sw = t.totals(Layer::kSwitchRx);
  const LayerTotals& host = t.totals(Layer::kHostRx);
  expect(rep.ticks == 120 && rep.self_ticks == 30, "rep self = 120 - 90");
  expect(run.ticks == 90 && run.self_ticks == 50,
         "sim.run self = 90 - 30 - 10");
  expect(sw.self_ticks == 30 && host.self_ticks == 10, "leaf self = total");
  expect(run.allocs == 5 && run.self_allocs == 3 && sw.self_allocs == 2 &&
             rep.self_allocs == 1,
         "allocations charged to the innermost open span");
  const std::vector<SpanRecord>& rec = t.records();
  expect(rec.size() == 4 && rec[0].parent == -1 && rec[1].parent == 0 &&
             rec[2].parent == 1 && rec[3].parent == 1 && rec[2].end == 50,
         "span records carry start, end and parent");
  expect(t.depth() == 0, "stack empty after balanced spans");
}

void estimator() {
  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(q.q1 == 2.75 && q.median == 5.5 && q.q3 == 8.25,
         "quartiles match Python's exclusive method");
  const Quartiles q2 = quartiles({2, 1});
  expect(q2.q1 == 0.75 && q2.median == 1.5 && q2.q3 == 2.25,
         "quartiles of two values extrapolate like Python");

  // Slow-only noise: 60 timing slices of known cost over 8 reps. Each rep
  // is slowed by 10-60% through one or two stretches of neighbour load
  // covering about half its slices, plus 0.3% jitter everywhere. The
  // estimate must stay within 1% of the true cost, while even the first
  // quartile of the rep totals is dragged well above it.
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto uniform = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) / 9007199254740992.0;
  };
  constexpr int kSlices = 60;
  constexpr int kReps = 8;
  std::vector<double> base(kSlices);
  double truth = 0;
  for (double& b : base) {
    b = 0.01 + 0.05 * uniform();
    truth += b;
  }
  std::vector<std::vector<double>> laps(kReps);
  std::vector<double> totals;
  for (int r = 0; r < kReps; ++r) {
    const int start = static_cast<int>(uniform() * kSlices);
    const double slow = 1.1 + 0.5 * uniform();
    double total = 0;
    for (int k = 0; k < kSlices; ++k) {
      const bool loaded = (k - start + kSlices) % kSlices < kSlices / 2;
      const double v = base[static_cast<std::size_t>(k)] *
                       (1.0 + 0.003 * uniform()) * (loaded ? slow : 1.0);
      laps[static_cast<std::size_t>(r)].push_back(v);
      total += v;
    }
    totals.push_back(total);
  }
  const double est = rep_cost_estimate(laps);
  expect(est >= truth && near(est, truth, 0.01 * truth),
         "estimator ignores slow-only noise");
  expect(quartiles(totals).q1 > 1.04 * truth,
         "the synthetic series is noisy (rep-total q1 > 4% high)");
  laps.back().pop_back();
  expect(near(rep_cost_estimate(laps), quartiles(totals).q1, 0.001 * truth),
         "misaligned laps fall back to the rep-total first quartile");

  // Set-up rounds of 100 µs builds: every round's first build is cold
  // (2.2x), and half the rounds run 10-60% slow throughout.
  std::vector<std::vector<double>> rounds(6);
  std::vector<double> all;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const double slow = r % 2 == 1 ? 1.1 + 0.5 * uniform() : 1.0;
    for (int j = 0; j < 50; ++j) {
      const double v =
          100e-6 * (j == 0 ? 2.2 : 1.0) * (1.0 + 0.003 * uniform()) * slow;
      rounds[r].push_back(v);
      all.push_back(v);
    }
  }
  const double setup = build_cost_estimate(rounds);
  expect(setup >= 100e-6 && near(setup, 100e-6, 0.01 * 100e-6),
         "set-up estimate ignores slow rounds and cold first builds");
  expect(quartiles(all).median > 1.04 * 100e-6,
         "the synthetic builds are noisy (median > 4% high)");
}

void metric_names() {
  for (const char* ok : {"flows_per_s", "sim.ns_per_event", "net.drop.no_route",
                         "a-b", "0x"}) {
    expect(valid_metric_name(ok), ok);
  }
  for (const char* bad : {"", "_lead", ".lead", "a b", "x/y", "p99%", "é"}) {
    expect(!valid_metric_name(bad), (std::string("rejects '") + bad + "'").c_str());
  }
  expect(valid_metric_name(std::string(64, 'a')) &&
             !valid_metric_name(std::string(65, 'a')),
         "names are at most 64 characters");
}

void planted_defect() {
  presto::check::Scenario clean = presto::check::Scenario::generate(1);
  presto::check::Scenario bad = clean;
  bad.bug = "eat:12";
  auto wl = make_fuzz_workload({clean, bad});
  const RepResult r = wl->rep(nullptr);
  expect(r.attempted == 2 && r.failed == 1,
         "a scenario with bug=eat:12 is a failed fuzz_check operation");
  expect(r.counts.violations > 0, "the planted defect trips an oracle");

  // The traced rep must reproduce the untraced outputs exactly.
  auto clean_wl = make_fuzz_workload({clean, presto::check::Scenario::generate(2)});
  Tracer tr;
  const RepResult plain = clean_wl->rep(nullptr);
  const RepResult traced = clean_wl->rep(&tr);
  expect(plain.failed == 0 && plain.digest == traced.digest,
         "traced fuzz rep reproduces the untraced digest");
  expect(tr.totals(Layer::kTap).calls > 0 &&
             tr.totals(Layer::kSwitchRx).calls > 0 &&
             tr.totals(Layer::kHostRx).calls > 0,
         "traced rep records tap, switch and host spans");
  expect(traced.counts.pending_max > 0 && traced.counts.gro_pushed > 0 &&
             plain.counts.gro_pushed == 0,
         "forwarder-only counts come from the traced rep");
}

}  // namespace

int main() {
  span_self_time();
  estimator();
  metric_names();
  planted_defect();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
