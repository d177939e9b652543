// Locks down the JSON contract of the micro-benchmark binary: the
// presto.bench document emitted by bench_micro_json.h (micro_overhead
// --json / PRESTO_BENCH_JSON) must stay parsable by telemetry/json_parse
// and keep its schema header, so perf tooling can diff runs across
// revisions.

#include "bench_micro_json.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench_json.h"
#include "telemetry/json_parse.h"

namespace presto::bench {
namespace {

std::vector<MicroRow> sample_rows() {
  MicroRow a;
  a.name = "BM_FlowcellEngine";
  a.ns_per_op = 12.5;
  a.bytes_per_sec = 5.24288e9;
  MicroRow b;
  b.name = "BM_RangeSetAdd";
  b.ns_per_op = 431.0;
  return {a, b};
}

TEST(MicroJsonDoc, EmitsSchemaVersionedParsableDocument) {
  const std::string doc = micro_json_doc("micro_overhead", sample_rows());

  telemetry::JsonValue root;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(doc, root, error)) << error;

  EXPECT_EQ(root.str_or("schema", ""), telemetry::kJsonSchemaName);
  EXPECT_EQ(root.num_or("schema_version", 0),
            telemetry::kJsonSchemaVersion);
  EXPECT_EQ(root.str_or("bench", ""), "micro_overhead");

  const telemetry::JsonValue& rows = root.get("benchmarks");
  ASSERT_EQ(rows.kind(), telemetry::JsonValue::Kind::kArray);
  ASSERT_EQ(rows.as_array().size(), 2u);

  const telemetry::JsonValue& first = rows.as_array()[0];
  EXPECT_EQ(first.str_or("name", ""), "BM_FlowcellEngine");
  EXPECT_DOUBLE_EQ(first.num_or("ns_per_op", 0), 12.5);
  EXPECT_DOUBLE_EQ(first.num_or("bytes_per_sec", 0), 5.24288e9);
  // No item counter was set, so the key must be absent (not zero).
  EXPECT_TRUE(first.get("items_per_sec").is_null());

  const telemetry::JsonValue& second = rows.as_array()[1];
  EXPECT_EQ(second.str_or("name", ""), "BM_RangeSetAdd");
  EXPECT_DOUBLE_EQ(second.num_or("ns_per_op", 0), 431.0);
  EXPECT_TRUE(second.get("bytes_per_sec").is_null());
}

TEST(MicroJsonDoc, WriteProducesParsableFileInRequestedDir) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "presto_bench_json_test";
  std::filesystem::remove_all(dir);

  MicroJsonConfig cfg;
  cfg.enabled = true;
  cfg.outdir = dir.string();
  ASSERT_TRUE(write_micro_json(cfg, "micro_overhead", sample_rows()));

  std::ifstream in(dir / "micro_overhead.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();

  telemetry::JsonValue root;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(buf.str(), root, error)) << error;
  EXPECT_EQ(root.str_or("schema", ""), telemetry::kJsonSchemaName);
  EXPECT_EQ(root.get("benchmarks").as_array().size(), 2u);

  std::filesystem::remove_all(dir);
}

TEST(BenchJsonDoc, WarningsBlockSurfacesTruncatedStatistics) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "presto_bench_warn_test";
  std::filesystem::remove_all(dir);
  setenv("PRESTO_BENCH_JSON", dir.string().c_str(), 1);

  {
    JsonReporter rep("warn_bench");
    ASSERT_TRUE(rep.enabled());
    harness::ExperimentConfig cfg;
    harness::SweepResult agg;
    agg.rtt_ms.add(1.0);
    rep.record(cfg, agg);
  }  // destructor writes the document
  unsetenv("PRESTO_BENCH_JSON");

  std::ifstream in(dir / "warn_bench.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::filesystem::remove_all(dir);

  telemetry::JsonValue root;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(buf.str(), root, error)) << error;

  const telemetry::JsonValue& warn = root.get("warnings");
  EXPECT_EQ(warn.num_or("sketch_collapsed", -1), 0);

  // Per-sketch collapse counts ride along in each point's sample blocks.
  const telemetry::JsonValue& point = root.get("points").as_array()[0];
  EXPECT_EQ(point.get("metrics").get("rtt_ms").num_or("collapsed", -1), 0);
}

TEST(MicroJsonConfig, FlagAndEnvGatingMatchesBenchJsonConventions) {
  // Keep the environment clean regardless of the harness.
  unsetenv("PRESTO_BENCH_JSON");

  const char* off[] = {"bench"};
  EXPECT_FALSE(micro_json_config(1, const_cast<char**>(off)).enabled);

  const char* flag[] = {"bench", "--json"};
  MicroJsonConfig cfg = micro_json_config(2, const_cast<char**>(flag));
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.outdir, "results");

  setenv("PRESTO_BENCH_JSON", "0", 1);
  EXPECT_FALSE(micro_json_config(1, const_cast<char**>(off)).enabled);

  setenv("PRESTO_BENCH_JSON", "1", 1);
  cfg = micro_json_config(1, const_cast<char**>(off));
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.outdir, "results");

  setenv("PRESTO_BENCH_JSON", "out/perf", 1);
  cfg = micro_json_config(1, const_cast<char**>(off));
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.outdir, "out/perf");

  unsetenv("PRESTO_BENCH_JSON");
}

}  // namespace
}  // namespace presto::bench
