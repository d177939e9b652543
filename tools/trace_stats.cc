// trace_stats: slice a flight-recorder trace.json (bench --trace-out /
// PRESTO_TRACE_OUT) into latency-component percentiles.
//
// For every closed flowcell span the tool rebuilds the causal timeline from
// the Perfetto async events and attributes the end-to-end latency to:
//   total        — span open (dispatch) to close (in-order TCP delivery)
//   queueing     — mean matched enqueue->dequeue wait across the span's
//                  packets and hops (packets queue concurrently, so a sum
//                  would exceed wall-clock total)
//   reorder_wait — last GRO flush to close (time spent waiting for the
//                  receiver frontier, i.e. reordering / loss recovery)
// and prints percentiles per shadow-MAC label plus a per-hop queueing
// breakdown. Slices: --flow SRC:DST, --label TREE, --hop N (switch) / hN
// (host N uplink).
//
// Usage: trace_stats <trace.json> [--flow SRC:DST] [--label N] [--hop SPEC]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stats/ddsketch.h"
#include "telemetry/json_parse.h"

namespace {

using presto::telemetry::JsonValue;

/// Host uplink TxPorts are tagged with the high bit so they never collide
/// with dense switch ids (see harness/experiment.cc).
constexpr std::uint32_t kHostNodeBit = 0x8000'0000u;

/// `<prefix><n>`, built by appending: GCC 12 reports a false -Wrestrict
/// on `"t" + std::to_string(n)` once inlined.
std::string numbered(const char* prefix, std::int64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

std::string node_name(std::uint32_t node) {
  if ((node & kHostNodeBit) != 0) {
    return numbered("h", node & ~kHostNodeBit);
  }
  return numbered("sw", node);
}

struct HopEvent {
  double ts_us = 0;
  std::string kind;
  std::uint32_t node = 0;
  int port = -1;
  std::uint64_t seq = 0;
};

struct SpanRec {
  double begin_us = 0;
  double end_us = 0;
  bool has_end = false;
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  int label_tree = -1;
  bool dropped = false;
  bool evicted = false;
  std::vector<HopEvent> events;
};

struct Filter {
  bool by_flow = false;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  bool by_label = false;
  int label = 0;
  bool by_hop = false;
  std::uint32_t hop = 0;
};

/// 1-based line number of a byte offset in `text` (for warnings/errors that
/// should point a human at the right place in a large JSON file).
std::size_t line_of(const std::string& text, std::size_t offset) {
  if (offset > text.size()) offset = text.size();
  std::size_t line = 1;
  for (std::size_t i = 0; i < offset; ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

/// Line of the first occurrence of `needle` (1 when absent: the root).
std::size_t line_of_key(const std::string& text, const std::string& needle) {
  const std::size_t pos = text.find(needle);
  return pos == std::string::npos ? 1 : line_of(text, pos);
}

/// Parse errors carry "... at offset N"; recover N for line mapping.
std::size_t offset_of_error(const std::string& error) {
  const std::size_t at = error.rfind(" at offset ");
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(error.c_str() + at + 11, nullptr, 10));
}

bool parse_hop(const std::string& spec, std::uint32_t& out) {
  std::string digits = spec;
  std::uint32_t base = 0;
  if (!digits.empty() && (digits[0] == 'h' || digits[0] == 'H')) {
    digits.erase(0, 1);
    base = kHostNodeBit;
  }
  if (digits.empty()) return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = base | static_cast<std::uint32_t>(v);
  return true;
}

bool matches(const SpanRec& s, const Filter& f) {
  if (f.by_flow && (s.src_host != f.src || s.dst_host != f.dst)) return false;
  if (f.by_label && s.label_tree != f.label) return false;
  if (f.by_hop) {
    for (const HopEvent& e : s.events) {
      if (e.node == f.hop) return true;
    }
    return false;
  }
  return true;
}

struct Components {
  double total_us = 0;
  double queueing_us = 0;  ///< mean wait over matched pairs
  double reorder_wait_us = 0;
  std::size_t queue_waits = 0;  ///< matched enqueue/dequeue pairs
  bool has_reorder = false;
};

/// Matches enqueue->dequeue pairs by (node, port, seq) and charges the
/// dequeue-enqueue delta to queueing; the residual after the last GRO flush
/// is reorder wait. `hop_queueing` collects the per-hop waits.
Components span_components(
    const SpanRec& s,
    std::map<std::pair<std::uint32_t, int>, presto::stats::DDSketch>*
        hop_queueing) {
  Components c;
  c.total_us = s.end_us - s.begin_us;
  std::map<std::tuple<std::uint32_t, int, std::uint64_t>, std::vector<double>>
      pending;
  double last_flush = -1;
  for (const HopEvent& e : s.events) {
    if (e.kind == "enqueue") {
      pending[{e.node, e.port, e.seq}].push_back(e.ts_us);
    } else if (e.kind == "dequeue") {
      auto it = pending.find({e.node, e.port, e.seq});
      if (it != pending.end() && !it->second.empty()) {
        const double wait = e.ts_us - it->second.front();
        it->second.erase(it->second.begin());
        c.queueing_us += wait;
        ++c.queue_waits;
        if (hop_queueing != nullptr) {
          (*hop_queueing)[{e.node, e.port}].add(wait);
        }
      }
    } else if (e.kind == "gro_flush") {
      if (e.ts_us > last_flush) last_flush = e.ts_us;
    }
  }
  if (c.queue_waits > 0) {
    c.queueing_us /= static_cast<double>(c.queue_waits);
  }
  if (last_flush >= 0) {
    c.has_reorder = true;
    c.reorder_wait_us = s.end_us - last_flush;
    if (c.reorder_wait_us < 0) c.reorder_wait_us = 0;
  }
  return c;
}

void print_row(const std::string& label, std::size_t n, const char* metric,
               const presto::stats::DDSketch& s) {
  std::printf("%-8s %7zu  %-14s %10.3f %10.3f %10.3f %10.3f\n", label.c_str(),
              n, metric, s.percentile(50), s.percentile(90), s.percentile(99),
              s.max());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--flow SRC:DST] [--label N] "
               "[--hop N|hN]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  Filter filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flow" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) return usage(argv[0]);
      filter.by_flow = true;
      filter.src =
          static_cast<std::uint32_t>(std::atoi(spec.substr(0, colon).c_str()));
      filter.dst = static_cast<std::uint32_t>(
          std::atoi(spec.substr(colon + 1).c_str()));
    } else if (arg == "--label" && i + 1 < argc) {
      filter.by_label = true;
      filter.label = std::atoi(argv[++i]);
    } else if (arg == "--hop" && i + 1 < argc) {
      if (!parse_hop(argv[++i], filter.hop)) return usage(argv[0]);
      filter.by_hop = true;
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_stats: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonValue doc;
  std::string error;
  if (!presto::telemetry::parse_json(text, doc, error)) {
    std::fprintf(stderr, "trace_stats: %s:%zu: %s\n", path.c_str(),
                 line_of(text, offset_of_error(error)), error.c_str());
    return 1;
  }

  // Traces may carry optional summary blocks (a bench-style "metrics" map,
  // a fabric_health section) alongside traceEvents. None of them is
  // required: note what's missing with a line number and keep going with
  // whatever the file does have.
  const JsonValue& health = doc.get("fabric_health");
  const JsonValue& metrics = doc.get("metrics");
  if (health.kind() != JsonValue::Kind::kObject &&
      metrics.kind() != JsonValue::Kind::kObject) {
    std::fprintf(stderr,
                 "trace_stats: warning: %s:%zu: no optional metrics/"
                 "fabric_health block; span stats only\n",
                 path.c_str(), line_of_key(text, "{"));
  }

  const JsonValue& events = doc.get("traceEvents");
  if (events.kind() != JsonValue::Kind::kArray) {
    std::fprintf(stderr,
                 "trace_stats: warning: %s:%zu: no traceEvents array; "
                 "nothing to slice\n",
                 path.c_str(), line_of_key(text, "{"));
    if (health.kind() == JsonValue::Kind::kObject) {
      const JsonValue& coll = health.get("collector");
      std::printf("fabric_health %s v%d: %d switches, %d reports, %d lost\n",
                  health.str_or("schema", "?").c_str(),
                  static_cast<int>(health.num_or("schema_version", 0)),
                  static_cast<int>(coll.num_or("switches", 0)),
                  static_cast<int>(coll.num_or("reports_received", 0)),
                  static_cast<int>(coll.num_or("lost", 0)));
    }
    return 0;
  }

  std::map<std::uint64_t, SpanRec> spans;
  std::set<std::string> counter_series;
  std::uint64_t counter_points = 0;
  for (const JsonValue& ev : events.as_array()) {
    const std::string ph = ev.str_or("ph", "");
    if (ph == "C") {
      counter_series.insert(ev.str_or("name", "?"));
      ++counter_points;
      continue;
    }
    if (ph != "b" && ph != "n" && ph != "e") continue;
    const auto id = static_cast<std::uint64_t>(ev.num_or("id", 0));
    SpanRec& s = spans[id];
    const JsonValue& args = ev.get("args");
    if (ph == "b") {
      s.begin_us = ev.num_or("ts", 0);
      s.src_host = static_cast<std::uint32_t>(args.num_or("src_host", 0));
      s.dst_host = static_cast<std::uint32_t>(args.num_or("dst_host", 0));
      s.src_port = static_cast<std::uint16_t>(args.num_or("src_port", 0));
      s.dst_port = static_cast<std::uint16_t>(args.num_or("dst_port", 0));
      s.label_tree = static_cast<int>(args.num_or("label_tree", -1));
      s.dropped = args.get("dropped").as_bool();
      s.evicted = args.get("evicted").as_bool();
    } else if (ph == "e") {
      s.end_us = ev.num_or("ts", 0);
      s.has_end = true;
    } else {
      HopEvent h;
      h.ts_us = ev.num_or("ts", 0);
      h.kind = args.str_or("kind", ev.str_or("name", "?"));
      h.node = static_cast<std::uint32_t>(args.num_or("node", 0));
      h.port = static_cast<int>(args.num_or("port", -1));
      h.seq = static_cast<std::uint64_t>(args.num_or("seq", 0));
      s.events.push_back(std::move(h));
    }
  }

  std::size_t total = 0;
  std::size_t dropped = 0;
  std::size_t evicted = 0;
  std::size_t selected = 0;
  // label tree -> component samples; -1 catches non-shadow labels.
  struct LabelStats {
    presto::stats::DDSketch total;
    presto::stats::DDSketch queueing;
    presto::stats::DDSketch reorder;
    std::size_t spans = 0;
  };
  std::map<int, LabelStats> by_label;
  LabelStats all;
  std::map<std::pair<std::uint32_t, int>, presto::stats::DDSketch> hop_queueing;

  for (const auto& [id, s] : spans) {
    if (!s.has_end) continue;
    ++total;
    if (s.dropped) ++dropped;
    if (s.evicted) ++evicted;
    if (!matches(s, filter)) continue;
    ++selected;
    const Components c = span_components(s, &hop_queueing);
    LabelStats& ls = by_label[s.label_tree];
    for (LabelStats* dst : {&ls, &all}) {
      ++dst->spans;
      dst->total.add(c.total_us);
      // Spans whose hop events fell to the bounded event ring have no
      // matched pairs; keep them out of the queueing distribution.
      if (c.queue_waits > 0) dst->queueing.add(c.queueing_us);
      if (c.has_reorder) dst->reorder.add(c.reorder_wait_us);
    }
  }

  std::printf("%s: %zu spans (%zu dropped, %zu evicted), %zu selected; "
              "%zu counter series, %llu points\n",
              path.c_str(), total, dropped, evicted, selected,
              counter_series.size(),
              static_cast<unsigned long long>(counter_points));
  if (filter.by_flow) {
    std::printf("  slice: flow %u:%u\n", filter.src, filter.dst);
  }
  if (filter.by_label) std::printf("  slice: label t%d\n", filter.label);
  if (filter.by_hop) {
    std::printf("  slice: hop %s\n", node_name(filter.hop).c_str());
  }
  if (selected == 0) {
    std::printf("no closed spans match the slice\n");
    return 0;
  }

  std::printf("\nlatency components per label (us)\n");
  std::printf("%-8s %7s  %-14s %10s %10s %10s %10s\n", "label", "spans",
              "metric", "p50", "p90", "p99", "max");
  auto print_label = [](const std::string& name, const LabelStats& ls) {
    print_row(name, ls.spans, "total", ls.total);
    print_row(name, ls.queueing.count(), "queueing", ls.queueing);
    print_row(name, ls.reorder.count(), "reorder_wait", ls.reorder);
  };
  for (const auto& [tree, ls] : by_label) {
    print_label(tree < 0 ? "-" : numbered("t", tree), ls);
  }
  if (by_label.size() > 1) print_label("all", all);

  std::printf("\nper-hop queueing (us)\n");
  std::printf("%-8s %7s  %-14s %10s %10s %10s %10s\n", "hop", "waits",
              "metric", "p50", "p90", "p99", "max");
  for (const auto& [hop, samples] : hop_queueing) {
    const std::string name =
        node_name(hop.first) + "/p" + std::to_string(hop.second);
    print_row(name, samples.count(), "queueing", samples);
  }
  return 0;
}
