// Shared helpers for the per-figure benchmark binaries.
//
// Every benchmark prints the same rows/series the paper reports, averaged
// over several seeds (the paper averages 20 runs; we default to 3 to keep
// wall-clock time reasonable — override with PRESTO_BENCH_SEEDS). Seed
// replicas run on a thread pool (PRESTO_BENCH_THREADS; defaults to the
// hardware thread count) with results merged in seed order, so the numbers
// are identical to a serial loop.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_json.h"
#include "harness/runners.h"
#include "harness/sweep.h"
#include "stats/ddsketch.h"

namespace presto::bench {

namespace detail {

/// Warns when an env knob is set but unusable, naming the variable, what a
/// valid value looks like, and the fallback being applied. Each accessor
/// parses once (thread-safe static init), so the warning prints once.
inline void warn_env(const char* var, const char* value, const char* want,
                     const char* fallback) {
  std::fprintf(stderr,
               "[bench] ignoring invalid %s=\"%s\" (want %s); using %s\n",
               var, value, want, fallback);
}

inline long env_long(const char* var, long fallback, long lo, long hi,
                     const char* want, const char* fallback_desc) {
  const char* env = std::getenv(var);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(env, &end, 10);
  if (errno == 0 && end != env && *end == '\0' && n >= lo && n <= hi) {
    return n;
  }
  warn_env(var, env, want, fallback_desc);
  return fallback;
}

}  // namespace detail

/// Number of seeds per data point (env PRESTO_BENCH_SEEDS, default 3).
inline int seed_count() {
  static const int n = static_cast<int>(
      detail::env_long("PRESTO_BENCH_SEEDS", 3, 1, 1 << 20,
                       "an integer > 0", "3"));
  return n;
}

/// Scales run lengths (env PRESTO_BENCH_TIME_SCALE, default 1.0): smaller
/// values make every benchmark proportionally quicker for smoke runs.
inline double time_scale() {
  static const double scale = [] {
    const char* env = std::getenv("PRESTO_BENCH_TIME_SCALE");
    if (env == nullptr) return 1.0;
    char* end = nullptr;
    errno = 0;
    const double s = std::strtod(env, &end);
    if (errno == 0 && end != env && *end == '\0' && s > 0) return s;
    detail::warn_env("PRESTO_BENCH_TIME_SCALE", env, "a number > 0", "1.0");
    return 1.0;
  }();
  return scale;
}

/// Sweep worker threads (env PRESTO_BENCH_THREADS; 0 = hardware threads).
inline unsigned thread_count() {
  static const unsigned n = static_cast<unsigned>(
      detail::env_long("PRESTO_BENCH_THREADS", 0, 1, 4096,
                       "an integer > 0", "hardware thread count"));
  return n;
}

/// Flight-recorder output base path: `--trace-out <path>` on the command
/// line (parsed by JsonReporter) or env PRESTO_TRACE_OUT. Empty / "0"
/// disables tracing. Non-empty turns on the time-series sampler and span
/// tracer for every figure-table point (figures.h); files land at
/// `<base>.trace.json` / `<base>.timeseries.csv` (first point, first seed)
/// and `<base>[.p<point>].seed<n>.*` for the rest.
inline const std::string& trace_out() {
  static const std::string base = [] {
    std::string p = JsonReporter::trace_out_arg();
    if (p.empty()) {
      if (const char* env = std::getenv("PRESTO_TRACE_OUT")) p = env;
    }
    if (p == "0") p.clear();
    return p;
  }();
  return base;
}

/// Span sampling rate used when tracing is on: every Nth flowcell gets a
/// causal span (env PRESTO_TRACE_SPAN_EVERY, default 64; 0 disables spans
/// while keeping the time series).
inline std::uint32_t trace_span_every() {
  static const auto n = static_cast<std::uint32_t>(
      detail::env_long("PRESTO_TRACE_SPAN_EVERY", 64, 0, 1L << 30,
                       "an integer >= 0", "64"));
  return n;
}

/// How each point of a bench runs: seed replicas, run-length scale, worker
/// threads, and the flight-recorder base path (empty: no traces). Benches
/// read it from the environment; claims_test fixes it in code.
struct SeedPlan {
  int seeds = 3;
  double time_scale = 1.0;
  unsigned threads = 0;
  std::string trace_base;
};

namespace detail {

inline void write_text_file(const std::string& path, const std::string& body) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s (%zu bytes)\n", path.c_str(),
                 body.size());
  } else {
    std::fprintf(stderr, "[bench] failed to open %s for writing\n",
                 path.c_str());
  }
}

/// Writes per-seed flight-recorder files for one merged point. `point` is
/// the point's 0-based index within this bench process.
inline void write_trace_files(const std::string& base, int point,
                              const harness::SweepResult& agg) {
  for (std::size_t i = 0; i < agg.runs.size(); ++i) {
    const auto& run = agg.runs[i];
    if (run.trace_json.empty() && run.timeseries_csv.empty()) continue;
    std::string stem = base;
    if (point > 0) stem += ".p" + std::to_string(point);
    if (point > 0 || i > 0) stem += ".seed" + std::to_string(i);
    if (!run.trace_json.empty()) {
      write_text_file(stem + ".trace.json", run.trace_json);
    }
    if (!run.timeseries_csv.empty()) {
      write_text_file(stem + ".timeseries.csv", run.timeseries_csv);
    }
  }
}

}  // namespace detail

inline sim::Time scaled(sim::Time t, double scale = time_scale()) {
  return static_cast<sim::Time>(static_cast<double>(t) * scale);
}

/// Aggregate of several seeded runs of one experiment point (the sweep
/// runner's merged view; `runs` holds the per-seed results).
using MultiRun = harness::SweepResult;

/// Prints a short CDF table (the paper's CDFs) for several labelled
/// percentile sketches side by side.
inline void print_cdf_table(
    const std::string& title, const std::string& unit,
    const std::vector<std::pair<std::string, const stats::DDSketch*>>& series) {
  std::printf("\n%s (%s; CDF percentiles)\n", title.c_str(), unit.c_str());
  std::printf("%-10s", "pct");
  for (const auto& [name, _] : series) std::printf(" %12s", name.c_str());
  std::printf("\n");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    std::printf("p%-9.1f", p);
    for (const auto& [_, samples] : series) {
      std::printf(" %12.3f", samples->percentile(p));
    }
    std::printf("\n");
  }
  std::printf("%-10s", "samples");
  for (const auto& [_, samples] : series) {
    std::printf(" %12zu", static_cast<std::size_t>(samples->count()));
  }
  std::printf("\n");
}

}  // namespace presto::bench
