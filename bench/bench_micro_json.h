// JSON emission for the google-benchmark micro binary (micro_overhead).
//
// google-benchmark's own --benchmark_format=json emits its house schema;
// the repo's tooling consumes presto.bench documents instead, so this
// header adapts one to the other: a CollectingReporter gathers {name,
// ns/op, items/s, bytes/s} rows from RunSpecifiedBenchmarks, and
// micro_json_doc() renders them under the presto.bench schema header. The
// gating mirrors bench_json.h: `--json` on the command line or
// PRESTO_BENCH_JSON in the environment ("1" writes to results/, any other
// non-"0" value names the output directory).
//
// tests/bench_json_test.cc locks the document shape down by re-parsing it
// with telemetry/json_parse.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "telemetry/json.h"

namespace presto::bench {

struct MicroRow {
  std::string name;
  double ns_per_op = 0;
  double items_per_sec = 0;  ///< 0 when the bench sets no item counter
  double bytes_per_sec = 0;  ///< 0 when the bench sets no byte counter
};

/// Display reporter that stashes every per-iteration run as a MicroRow.
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      MicroRow row;
      row.name = r.benchmark_name();
      row.ns_per_op = r.GetAdjustedRealTime();
      if (const auto it = r.counters.find("items_per_second");
          it != r.counters.end()) {
        row.items_per_sec = it->second;
      }
      if (const auto it = r.counters.find("bytes_per_second");
          it != r.counters.end()) {
        row.bytes_per_sec = it->second;
      }
      rows.push_back(std::move(row));
    }
  }

  std::vector<MicroRow> rows;
};

/// Where (and whether) to write the JSON document.
struct MicroJsonConfig {
  bool enabled = false;
  std::string outdir = "results";
};

/// Resolves --json / PRESTO_BENCH_JSON exactly like bench_json.h does.
inline MicroJsonConfig micro_json_config(int argc, char** argv) {
  MicroJsonConfig cfg;
  if (const char* env = std::getenv("PRESTO_BENCH_JSON")) {
    const std::string v = env;
    if (!v.empty() && v != "0") {
      cfg.enabled = true;
      if (v != "1") cfg.outdir = v;
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") cfg.enabled = true;
  }
  return cfg;
}

/// Renders the presto.bench v1 document for a micro binary.
inline std::string micro_json_doc(const std::string& bench_name,
                                  const std::vector<MicroRow>& rows) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(telemetry::kJsonSchemaName);
  w.key("schema_version");
  w.value(telemetry::kJsonSchemaVersion);
  w.key("bench");
  w.value(bench_name);
  w.key("benchmarks");
  w.begin_array();
  for (const MicroRow& row : rows) {
    w.begin_object();
    w.key("name");
    w.value(row.name);
    w.key("ns_per_op");
    w.value(row.ns_per_op);
    if (row.items_per_sec > 0) {
      w.key("items_per_sec");
      w.value(row.items_per_sec);
    }
    if (row.bytes_per_sec > 0) {
      w.key("bytes_per_sec");
      w.value(row.bytes_per_sec);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Writes <outdir>/<bench>.json; returns true on success.
inline bool write_micro_json(const MicroJsonConfig& cfg,
                             const std::string& bench_name,
                             const std::vector<MicroRow>& rows) {
  std::error_code ec;
  std::filesystem::create_directories(cfg.outdir, ec);
  const std::string path = cfg.outdir + "/" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] failed to open %s for writing\n",
                 path.c_str());
    return false;
  }
  const std::string doc = micro_json_doc(bench_name, rows);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s (%zu benchmarks)\n", path.c_str(),
               rows.size());
  return true;
}

}  // namespace presto::bench
