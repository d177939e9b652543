// Exporter tests: Perfetto trace.json structure (golden for a tiny
// hand-built recorder), the time-series CSV golden, json_parse round-trips
// of the exporter's own output, and load_json_file's file errors.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "net/types.h"
#include "sim/simulation.h"
#include "telemetry/export.h"
#include "telemetry/json_parse.h"
#include "telemetry/span.h"
#include "telemetry/timeseries.h"

namespace presto::telemetry {
namespace {

net::FlowKey flow() {
  net::FlowKey f;
  f.src_host = 3;
  f.dst_host = 7;
  f.src_port = 1000;
  f.dst_port = 2000;
  return f;
}

/// A two-point sampler and a one-span tracer, fully deterministic.
struct TinyRecorder {
  sim::Simulation sim;
  TimeSeriesSampler sampler{{/*interval=*/1000, /*capacity=*/8}};
  SpanTracer spans{{/*sample_every=*/1, /*max_spans=*/4, /*max_events=*/16}};

  TinyRecorder() {
    double v = 10;
    sampler.add_series("q.depth", [v]() mutable { return v += 5; });
    sampler.start(sim);
    sim.run_until(2500);  // ticks at 1000 and 2000

    const std::uint32_t s =
        spans.open(100, flow(), 42, net::shadow_mac(7, 2), 64000);
    spans.extend(s, 65500);
    spans.annotate(s, SpanEventKind::kEnqueue, 110, 4, 1, 64000, 1500);
    spans.annotate(s, SpanEventKind::kDequeue, 230, 4, 1, 64000, 1500);
    spans.on_delivered(flow(), 65500, 400);
  }
};

TEST(ExportPerfetto, StructureRoundTripsThroughJsonParse) {
  TinyRecorder r;
  const std::string doc = export_perfetto_json(&r.sampler, &r.spans);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(doc, v, error)) << error;
  EXPECT_EQ(v.str_or("displayTimeUnit", ""), "ms");
  const JsonValue& events = v.get("traceEvents");
  ASSERT_EQ(events.kind(), JsonValue::Kind::kArray);

  int meta = 0, counters = 0, begins = 0, instants = 0, ends = 0;
  for (const JsonValue& e : events.as_array()) {
    const std::string ph = e.str_or("ph", "");
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.get("args").str_or("name", ""), "presto flight recorder");
    } else if (ph == "C") {
      ++counters;
      EXPECT_EQ(e.str_or("name", ""), "q.depth");
    } else if (ph == "b") {
      ++begins;
      EXPECT_EQ(e.str_or("cat", ""), "flowcell");
      const JsonValue& args = e.get("args");
      EXPECT_EQ(args.num_or("src_host", -1), 3);
      EXPECT_EQ(args.num_or("dst_host", -1), 7);
      EXPECT_EQ(args.num_or("flowcell", -1), 42);
      EXPECT_EQ(args.num_or("label_tree", -1), 2);
      EXPECT_EQ(args.num_or("start_seq", -1), 64000);
      EXPECT_EQ(args.num_or("end_seq", -1), 65500);
      EXPECT_FALSE(args.get("dropped").as_bool());
      EXPECT_EQ(e.num_or("ts", -1), 0.1);  // 100 ns in µs
    } else if (ph == "n") {
      ++instants;
      const std::string kind = e.get("args").str_or("kind", "");
      if (kind == "enqueue" || kind == "dequeue") {
        EXPECT_EQ(e.get("args").num_or("node", -1), 4);
      }
    } else if (ph == "e") {
      ++ends;
      EXPECT_EQ(e.num_or("ts", -1), 0.4);
    }
  }
  EXPECT_EQ(meta, 1);
  EXPECT_EQ(counters, 2);
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(instants, 3);  // enqueue + dequeue + delivered
  EXPECT_EQ(ends, 1);
}

TEST(ExportPerfetto, DanglingSpansAreSkippedUntilFinalize) {
  SpanTracer spans({1, 4, 16});
  const std::uint32_t s = spans.open(100, flow(), 1, net::shadow_mac(0, 0), 0);
  spans.extend(s, 1000);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(export_perfetto_json(nullptr, &spans), v, error));
  for (const JsonValue& e : v.get("traceEvents").as_array()) {
    EXPECT_NE(e.str_or("ph", ""), "b") << "open span must not be exported";
  }

  spans.finalize(900);
  ASSERT_TRUE(parse_json(export_perfetto_json(nullptr, &spans), v, error));
  bool found = false;
  for (const JsonValue& e : v.get("traceEvents").as_array()) {
    if (e.str_or("ph", "") != "b") continue;
    found = true;
    EXPECT_TRUE(e.get("args").get("evicted").as_bool());
  }
  EXPECT_TRUE(found);
}

TEST(ExportCsv, TimeSeriesGolden) {
  TinyRecorder r;
  EXPECT_EQ(export_timeseries_csv(r.sampler),
            "series,t_ns,value\n"
            "q.depth,1000,15\n"
            "q.depth,2000,20\n");
}

TEST(JsonParse, ParsesScalarsContainersAndEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(
      R"({"a": [1, -2.5e3, true, false, null], "s": "q\"\nAé"})", v,
      error))
      << error;
  const auto& arr = v.get("a").as_array();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[0].as_double(), 1);
  EXPECT_EQ(arr[1].as_double(), -2500);
  EXPECT_TRUE(arr[2].as_bool());
  EXPECT_FALSE(arr[3].as_bool());
  EXPECT_TRUE(arr[4].is_null());
  EXPECT_EQ(v.get("s").as_string(), "q\"\nA\xc3\xa9");
  EXPECT_TRUE(v.get("missing").is_null());
}

TEST(JsonParse, RejectsMalformedInputWithOffset) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": }", v, error));
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(parse_json("[1, 2", v, error));
  EXPECT_FALSE(parse_json("", v, error));
  EXPECT_FALSE(parse_json("{} trailing", v, error));
  // Depth bound: 100 nested arrays exceed kMaxDepth.
  EXPECT_FALSE(parse_json(std::string(100, '[') + std::string(100, ']'), v,
                          error));
}

TEST(JsonParse, RoundTripsSeventeenDigitDoubles) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json("[0.1234567890123456789, 1e308]", v, error));
  EXPECT_EQ(v.as_array()[0].as_double(), 0.1234567890123456789);
  EXPECT_EQ(v.as_array()[1].as_double(), 1e308);
}

/// Writes `text` to a file in the test temp dir unique to this process.
std::string write_temp(const char* name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "export_test." +
                           std::to_string(::getpid()) + "." + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

TEST(JsonParse, LoadFilePrefixesErrorsWithPathAndLine) {
  const std::string path =
      write_temp("bad.json", "{\n  \"a\": 1,\n  \"b\": }\n");
  JsonValue v;
  std::string error;
  EXPECT_FALSE(load_json_file(path, v, error));
  std::remove(path.c_str());
  EXPECT_EQ(error.rfind(path + ":3: ", 0), 0u) << error;
  EXPECT_NE(error.find("expected number at offset 19"), std::string::npos)
      << error;
}

TEST(JsonParse, LoadFileFailsOnAMissingFile) {
  const std::string path = ::testing::TempDir() + "export_test.missing.json";
  JsonValue v;
  std::string error;
  EXPECT_FALSE(load_json_file(path, v, error));
  EXPECT_EQ(error, "cannot open " + path);
}

TEST(JsonParse, LoadFileParsesAValidFile) {
  const std::string path =
      write_temp("good.json", "{\"schema\": \"presto.soak\",\n \"n\": [1, 2]}");
  JsonValue v;
  std::string error;
  ASSERT_TRUE(load_json_file(path, v, error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(v.str_or("schema", ""), "presto.soak");
  EXPECT_EQ(v.get("n").as_array().size(), 2u);
}

}  // namespace
}  // namespace presto::telemetry
