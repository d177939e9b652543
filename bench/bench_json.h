// JSON results emitter for the benchmark binaries.
//
// Construct one JsonReporter at the top of a bench main(). It is inert
// unless `--json` is on the command line or PRESTO_BENCH_JSON is set
// (value "1" writes to results/, any other non-"0" value names the output
// directory). Benches label each point with set_point() and then record()
// its merged result; the figure table (figures.h) does both for its rows.
//
// Output: <outdir>/<bench>.json with schema presto.bench v1:
//   { "schema", "schema_version", "bench", "seeds", "time_scale",
//     "warnings": { "sketch_collapsed" },
//     "points": [ { "label", "scheme", "params": {...},
//                   "metrics": {..., "rtt_ms": {...}, "fct_ms": {...}},
//                   "telemetry": {counters/gauges/histograms} } ] }
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.h"
#include "stats/ddsketch.h"
#include "telemetry/json.h"

namespace presto::bench {

class JsonReporter {
 public:
  using Params = std::vector<std::pair<std::string, double>>;

  explicit JsonReporter(std::string bench_name, int argc = 0,
                        char** argv = nullptr)
      : bench_(std::move(bench_name)) {
    if (const char* env = std::getenv("PRESTO_BENCH_JSON")) {
      const std::string v = env;
      if (!v.empty() && v != "0") {
        enabled_ = true;
        if (v != "1") outdir_ = v;
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        enabled_ = true;
      } else if (arg == "--trace-out" && i + 1 < argc) {
        trace_out_arg_ = argv[++i];
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        trace_out_arg_ = arg.substr(std::string("--trace-out=").size());
      }
    }
    if (enabled_) active_ = this;
  }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (active_ == this) active_ = nullptr;
    if (enabled_) write_file();
  }

  bool enabled() const { return enabled_; }

  /// The reporter the figure table records into, or null.
  static JsonReporter* active() { return active_; }

  /// Base path given via `--trace-out <path>` (empty when absent). The env
  /// fallback (PRESTO_TRACE_OUT) is resolved in bench_util's trace_out().
  static const std::string& trace_out_arg() { return trace_out_arg_; }

  /// Labels the next recorded point (sticky until the next set_point).
  void set_point(std::string label, Params params = {}) {
    label_ = std::move(label);
    params_ = std::move(params);
  }

  /// Document-level run configuration (seeds and time scale).
  void note_run_config(int seeds, double time_scale) {
    doc_seeds_ = seeds;
    doc_time_scale_ = time_scale;
  }

  void record(const harness::ExperimentConfig& cfg,
              const harness::SweepResult& agg) {
    Point p;
    p.label = label_.empty() ? harness::scheme_name(cfg.scheme) : label_;
    p.scheme = harness::scheme_name(cfg.scheme);
    p.params = params_;
    p.seeds = agg.runs.size();
    p.avg_tput_gbps = agg.avg_tput_gbps;
    p.fairness = agg.fairness;
    p.loss_pct = agg.loss_pct;
    p.mice_timeouts = agg.mice_timeouts;
    p.rtt_ms = agg.rtt_ms;
    p.fct_ms = agg.fct_ms;
    p.telemetry = agg.telemetry;
    p.fabric_health = agg.fabric_health_json;
    points_.push_back(std::move(p));
  }

 private:
  struct Point {
    std::string label;
    std::string scheme;
    Params params;
    std::size_t seeds = 0;
    double avg_tput_gbps = 0;
    double fairness = 0;
    double loss_pct = 0;
    std::uint64_t mice_timeouts = 0;
    stats::DDSketch rtt_ms;
    stats::DDSketch fct_ms;
    telemetry::Snapshot telemetry;
    std::string fabric_health;  ///< prerendered fabric_health document
  };

  static std::uint64_t counter_or(const telemetry::Snapshot& snap,
                                  const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  /// Per-cause drop + path-suspicion summaries. These live in the telemetry
  /// counter map too, but surfacing them under "metrics" makes gray-link
  /// runs distinguishable without digging through the full snapshot.
  static void write_health(telemetry::JsonWriter& w,
                           const telemetry::Snapshot& snap) {
    w.key("drops");
    w.begin_object();
    w.key("queue_full");
    w.value(counter_or(snap, "net.port.dropped.queue_full"));
    w.key("link_down");
    w.value(counter_or(snap, "net.port.dropped.link_down"));
    w.key("loss_model");
    w.value(counter_or(snap, "net.port.dropped.loss_model"));
    w.key("corrupt");
    w.value(counter_or(snap, "net.port.dropped.corrupt"));
    w.key("no_route");
    w.value(counter_or(snap, "net.switch.dropped.no_route"));
    w.end_object();
    w.key("suspicion");
    w.begin_object();
    w.key("signals");
    w.value(counter_or(snap, "core.flowcell.suspicion.signals"));
    w.key("skips");
    w.value(counter_or(snap, "core.flowcell.suspicion.skips"));
    w.key("clears");
    w.value(counter_or(snap, "core.flowcell.suspicion.clears"));
    w.end_object();
  }

  static void write_samples(telemetry::JsonWriter& w,
                            const stats::DDSketch& s) {
    w.begin_object();
    w.key("count");
    w.value(static_cast<std::uint64_t>(s.count()));
    w.key("collapsed");
    w.value(s.collapsed());
    w.key("mean");
    w.value(s.mean());
    for (const auto& [name, p] :
         {std::pair<const char*, double>{"p50", 50.0},
          {"p90", 90.0},
          {"p99", 99.0},
          {"p999", 99.9}}) {
      w.key(name);
      w.value(s.percentile(p));
    }
    w.end_object();
  }

  void write_file() const {
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.value(telemetry::kJsonSchemaName);
    w.key("schema_version");
    w.value(telemetry::kJsonSchemaVersion);
    w.key("bench");
    w.value(bench_);
    w.key("seeds");
    w.value(doc_seeds_);
    w.key("time_scale");
    w.value(doc_time_scale_);
    // Statistics-quality warnings: nonzero values mean some reported
    // numbers rest on resolution-degraded sample streams (DDSketch low-end
    // store collapse).
    std::uint64_t sketch_collapsed = 0;
    for (const Point& p : points_) {
      sketch_collapsed += p.rtt_ms.collapsed() + p.fct_ms.collapsed();
    }
    w.key("warnings");
    w.begin_object();
    w.key("sketch_collapsed");
    w.value(sketch_collapsed);
    w.end_object();
    w.key("points");
    w.begin_array();
    for (const Point& p : points_) {
      w.begin_object();
      w.key("label");
      w.value(p.label);
      w.key("scheme");
      w.value(p.scheme);
      w.key("seeds");
      w.value(static_cast<std::uint64_t>(p.seeds));
      w.key("params");
      w.begin_object();
      for (const auto& [k, v] : p.params) {
        w.key(k);
        w.value(v);
      }
      w.end_object();
      w.key("metrics");
      w.begin_object();
      w.key("avg_tput_gbps");
      w.value(p.avg_tput_gbps);
      w.key("fairness");
      w.value(p.fairness);
      w.key("loss_pct");
      w.value(p.loss_pct);
      w.key("mice_timeouts");
      w.value(p.mice_timeouts);
      w.key("rtt_ms");
      write_samples(w, p.rtt_ms);
      w.key("fct_ms");
      write_samples(w, p.fct_ms);
      write_health(w, p.telemetry);
      w.end_object();
      w.key("telemetry");
      telemetry::write_snapshot(w, p.telemetry);
      if (!p.fabric_health.empty()) {
        w.key("fabric_health");
        w.raw(p.fabric_health);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();

    std::error_code ec;
    std::filesystem::create_directories(outdir_, ec);
    const std::string path = outdir_ + "/" + bench_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string& doc = w.str();
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "[bench] wrote %s (%zu points)\n", path.c_str(),
                   points_.size());
    } else {
      std::fprintf(stderr, "[bench] failed to open %s for writing\n",
                   path.c_str());
    }
  }

  std::string bench_;
  std::string outdir_ = "results";
  bool enabled_ = false;
  int doc_seeds_ = 0;
  double doc_time_scale_ = 1.0;
  std::string label_;
  Params params_;
  std::vector<Point> points_;

  static inline JsonReporter* active_ = nullptr;
  static inline std::string trace_out_arg_;
};

}  // namespace presto::bench
