// tools/report end to end. A small seeded run writes the artifacts the tool
// reads: a flight-recorder trace with spans, a raw fabric_health document,
// and a presto.bench-shaped file that embeds that document under point
// labels. Each subcommand then runs as a subprocess of the built binary;
// the checks are its exit status (0 ok, 1 I/O or schema error, 2 usage),
// its table headers, --point selection, and `<path>:<line>:` parse errors.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "telemetry/json_parse.h"
#include "workload/patterns.h"

namespace presto {
namespace {

namespace fs = std::filesystem;

struct Artifacts {
  std::string dir;
  std::string trace;   ///< export_perfetto_json of a run with spans
  std::string health;  ///< raw presto.fabric_health document
  std::string bench;   ///< presto.bench with points "quiet", "first", "second"
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

struct Result {
  int status = -1;
  std::string out;
  std::string err;
};

class Report : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    art_.dir = (fs::path(::testing::TempDir()) /
                ("report_test." + std::to_string(::getpid())))
                   .string();
    fs::create_directories(art_.dir);

    harness::ExperimentConfig cfg;
    cfg.scheme = harness::Scheme::kPresto;
    cfg.spines = 2;
    cfg.leaves = 2;
    cfg.hosts_per_leaf = 2;
    cfg.seed = 7;
    cfg.telemetry.span_sample_every = 4;
    cfg.telemetry.fabric.monitors = true;
    cfg.telemetry.fabric.flush_period = sim::kMillisecond;
    harness::Experiment ex(cfg);
    for (const auto& [s, d] : workload::stride_pairs(4, 2)) {
      ex.add_elephant(s, d, 0);
    }
    ex.sim().run_until(5 * sim::kMillisecond);

    art_.trace = art_.dir + "/run.trace.json";
    art_.health = art_.dir + "/health.json";
    art_.bench = art_.dir + "/bench.json";
    const std::string health = ex.fabric_health_json();
    write_file(art_.trace, ex.export_trace_json());
    write_file(art_.health, health);
    write_file(art_.bench,
               "{\"schema\": \"presto.bench\", \"points\": [\n"
               "  {\"label\": \"quiet\"},\n"
               "  {\"label\": \"first\", \"fabric_health\": " + health + "},\n"
               "  {\"label\": \"second\", \"fabric_health\": " + health +
                   "}\n]}\n");
  }

  static void TearDownTestSuite() { fs::remove_all(art_.dir); }

  /// Runs `report <args>`; stdout and stderr are captured separately.
  static Result report(const std::string& args) {
    const std::string out = art_.dir + "/stdout.txt";
    const std::string err = art_.dir + "/stderr.txt";
    const std::string cmd = std::string(PRESTO_REPORT_BIN) + " " + args +
                            " >" + out + " 2>" + err;
    const int raw = std::system(cmd.c_str());
    Result r;
    r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    r.out = read_file(out);
    r.err = read_file(err);
    return r;
  }

  static Artifacts art_;
};

Artifacts Report::art_;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool has(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

TEST_F(Report, SpansPrintsLatencyComponentsPerLabelAndHop) {
  const Result r = report("spans " + art_.trace);
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_TRUE(r.err.empty()) << r.err;
  EXPECT_TRUE(starts_with(r.out, art_.trace + ": ")) << r.out;
  EXPECT_FALSE(has(r.out, ": 0 spans")) << r.out;
  EXPECT_TRUE(has(r.out, "\nlatency components per label (us)\n"
                         "label      spans  metric                p50"))
      << r.out;
  EXPECT_TRUE(has(r.out, "\nper-hop queueing (us)\n"
                         "hop        waits  metric                p50"))
      << r.out;
  EXPECT_TRUE(has(r.out, "reorder_wait")) << r.out;
}

TEST_F(Report, SpansSlicesByLabelFlowAndHop) {
  Result r = report("spans " + art_.trace + " --label 1");
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_TRUE(has(r.out, "  slice: label t1\n")) << r.out;
  EXPECT_TRUE(has(r.out, "\nt1 ")) << r.out;
  EXPECT_FALSE(has(r.out, "\nt0 ")) << r.out;

  r = report("spans --hop h0 " + art_.trace);
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_TRUE(has(r.out, "  slice: hop h0\n")) << r.out;

  r = report("spans " + art_.trace + " --flow 3:3");
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_TRUE(has(r.out, "  slice: flow 3:3\n")) << r.out;
  EXPECT_TRUE(has(r.out, "no closed spans match the slice\n")) << r.out;
}

TEST_F(Report, SummaryReadsARawDocumentAndSelectsBenchPoints) {
  Result r = report("summary " + art_.health);
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_TRUE(starts_with(r.out, art_.health + "  (presto.fabric_health v1"))
      << r.out;
  EXPECT_TRUE(has(r.out, "\nper-label traffic\nlabel          tx_bytes"))
      << r.out;
  EXPECT_TRUE(has(r.out, "\nanomalies\n  imbalance      index ")) << r.out;

  // The default is the first point that carries a section.
  const Result first = report("summary " + art_.bench);
  ASSERT_EQ(first.status, 0) << first.err;
  EXPECT_TRUE(starts_with(first.out, art_.bench + "#first  (")) << first.out;

  const Result second = report("summary --point second " + art_.bench);
  ASSERT_EQ(second.status, 0) << second.err;
  EXPECT_TRUE(starts_with(second.out, art_.bench + "#second  ("))
      << second.out;
  // Same section under two labels: only the source line differs.
  EXPECT_EQ(first.out.substr(first.out.find('\n')),
            second.out.substr(second.out.find('\n')));
  EXPECT_EQ(r.out.substr(r.out.find('\n')),
            first.out.substr(first.out.find('\n')));

  r = report("summary --point quiet " + art_.bench);
  EXPECT_EQ(r.status, 1);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_TRUE(has(r.err, "point 'quiet' has no fabric_health section"))
      << r.err;
  r = report("summary --point nowhere " + art_.bench);
  EXPECT_EQ(r.status, 1);
  EXPECT_TRUE(has(r.err, "no point labelled 'nowhere'")) << r.err;
}

TEST_F(Report, ExtractRoundTripsTheSectionIntoDiff) {
  const Result raw = report("extract " + art_.health);
  ASSERT_EQ(raw.status, 0) << raw.err;
  const Result embedded = report("extract --point second " + art_.bench);
  ASSERT_EQ(embedded.status, 0) << embedded.err;
  EXPECT_EQ(raw.out, embedded.out);

  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::parse_json(raw.out, doc, error)) << error;
  EXPECT_EQ(doc.str_or("schema", ""), "presto.fabric_health");

  const std::string extracted = art_.dir + "/extracted.json";
  write_file(extracted, raw.out);
  const Result d = report("diff " + art_.health + " " + extracted);
  ASSERT_EQ(d.status, 0) << d.err;
  EXPECT_TRUE(has(d.out, "-> B ")) << d.out;
  EXPECT_TRUE(has(d.out, "(+0.000)\n")) << d.out;
}

TEST_F(Report, DiffAlignsTwoSections) {
  const Result r = report("diff --point second " + art_.health + " " +
                          art_.bench);
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_TRUE(starts_with(r.out, "A: " + art_.health + "\nB: " + art_.bench +
                                     "#second\n"))
      << r.out;
  EXPECT_TRUE(has(r.out, "\ncollector                              A"))
      << r.out;
  EXPECT_TRUE(has(r.out, "\nper-label loss% / tx_bytes\n")) << r.out;
  EXPECT_TRUE(has(r.out, "\nanomalies in A\n")) << r.out;
  EXPECT_TRUE(has(r.out, "\nanomalies in B\n")) << r.out;
}

TEST_F(Report, UsageErrorsExitTwo) {
  const std::vector<std::string> cases = {
      "",
      "bogus",
      "spans",
      "spans " + art_.trace + " --flow 3",
      "spans " + art_.trace + " --hop x",
      "spans " + art_.trace + " " + art_.trace,
      "summary",
      "summary " + art_.health + " " + art_.health,
      "summary --verbose " + art_.health,
      "diff " + art_.health,
      "extract"};
  for (const std::string& args : cases) {
    const Result r = report(args);
    EXPECT_EQ(r.status, 2) << "report " << args;
    EXPECT_TRUE(r.out.empty()) << "report " << args;
    EXPECT_TRUE(starts_with(r.err, "usage: report spans")) << r.err;
  }
}

TEST_F(Report, MalformedFilesFailWithPathAndLine) {
  const std::string bad = art_.dir + "/bad.json";
  write_file(bad, "{\n  \"schema\": \"presto.fabric_health\",\n  \"x\": [1,\n"
                  "}\n");
  for (const char* cmd : {"spans ", "summary ", "extract "}) {
    const Result r = report(cmd + bad);
    EXPECT_EQ(r.status, 1) << cmd;
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_TRUE(starts_with(r.err, "report: " + bad + ":4: ")) << r.err;
  }
  const Result d = report("diff " + art_.health + " " + bad);
  EXPECT_EQ(d.status, 1);
  EXPECT_TRUE(starts_with(d.err, "report: " + bad + ":4: ")) << d.err;

  const std::string missing = art_.dir + "/missing.json";
  const Result m = report("summary " + missing);
  EXPECT_EQ(m.status, 1);
  EXPECT_EQ(m.err, "report: cannot open " + missing + "\n");
}

TEST_F(Report, WrongDocumentKindsAreSchemaErrors) {
  Result r = report("spans " + art_.health);
  EXPECT_EQ(r.status, 1);
  EXPECT_TRUE(has(r.err, "no traceEvents array")) << r.err;

  r = report("summary " + art_.trace);
  EXPECT_EQ(r.status, 1);
  EXPECT_TRUE(has(r.err, "neither a fabric_health section nor a bench file"))
      << r.err;
}

}  // namespace
}  // namespace presto
