// report: read a run's artifacts back and print them as tables.
//
//   report spans <trace.json> [--flow SRC:DST] [--label N] [--hop N|hN]
//   report summary [--point LABEL] <file>
//   report extract [--point LABEL] <file>
//   report diff [--point LABEL] <a> <b>
//
// `spans` slices a flight-recorder trace.json (bench --trace-out /
// PRESTO_TRACE_OUT). For every closed flowcell span it rebuilds the causal
// timeline from the Perfetto async events and attributes the end-to-end
// latency to:
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
// `summary`, `extract` and `diff` read the fabric_health sections emitted by
// the in-fabric telemetry plane (src/telemetry/fabric). A file is either a
// raw fabric_health document (schema presto.fabric_health, as returned by
// FabricCollector::health_json) or a bench results file (schema
// presto.bench) whose points embed "fabric_health" sections — the tool
// auto-detects which. For bench files, `--point LABEL` selects a point by
// label (default: the first point that carries a health section).
// `summary` prints one section, `extract` its raw JSON (for archiving /
// piping into `diff`), and `diff` two sections side by side.
//
// Every file is read through telemetry::load_json_file, so a malformed one
// fails with `<path>:<line>: ...`. Exit status: 0 on success, 1 on I/O or
// schema errors, 2 on usage. `summary` exits 0 even when anomalies are
// flagged — this is a reporting tool, not a gate; grep the "FLAGGED" lines
// to build one.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "net/tap.h"
#include "stats/ddsketch.h"
#include "telemetry/json.h"
#include "telemetry/json_parse.h"

namespace {

using presto::net::kHostNodeBit;
using presto::telemetry::JsonValue;

int usage() {
  std::fprintf(
      stderr,
      "usage: report spans <trace.json> [--flow SRC:DST] [--label N] "
      "[--hop N|hN]\n"
      "       report summary [--point LABEL] <file>\n"
      "       report extract [--point LABEL] <file>\n"
      "       report diff [--point LABEL] <a> <b>\n"
      "health files: raw fabric_health JSON or presto.bench results\n");
  return 2;
}

// ------------------------------------------------------------------ spans

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

int run_spans(const std::vector<std::string>& args) {
  std::string path;
  Filter filter;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--flow" && has_value) {
      const std::string& spec = args[++i];
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) return usage();
      filter.by_flow = true;
      filter.src =
          static_cast<std::uint32_t>(std::atoi(spec.substr(0, colon).c_str()));
      filter.dst = static_cast<std::uint32_t>(
          std::atoi(spec.substr(colon + 1).c_str()));
    } else if (arg == "--label" && has_value) {
      filter.by_label = true;
      filter.label = std::atoi(args[++i].c_str());
    } else if (arg == "--hop" && has_value) {
      if (!parse_hop(args[++i], filter.hop)) return usage();
      filter.by_hop = true;
    } else if (path.empty() && !arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  JsonValue doc;
  std::string error;
  if (!presto::telemetry::load_json_file(path, doc, error)) {
    std::fprintf(stderr, "report: %s\n", error.c_str());
    return 1;
  }
  const JsonValue& events = doc.get("traceEvents");
  if (events.kind() != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "report: %s: no traceEvents array; not a trace\n",
                 path.c_str());
    return 1;
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

// ---------------------------------------------------------- fabric_health

/// Re-serializes a parsed subtree (used by `extract` to slice one health
/// section out of a bench file). Numbers went through double on the way in
/// and the writer prints %.17g, so values round-trip exactly.
void render(const JsonValue& v, presto::telemetry::JsonWriter& w) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      // The writer has no null scalar; the fabric_health schema never emits
      // one, so this only fires on foreign documents.
      w.value("null");
      break;
    case JsonValue::Kind::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.as_double());
      break;
    case JsonValue::Kind::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& e : v.as_array()) render(e, w);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, e] : v.as_object()) {
        w.key(key);
        render(e, w);
      }
      w.end_object();
      break;
  }
}

struct LoadedHealth {
  JsonValue doc;       ///< owns the parsed tree (health may point into it)
  const JsonValue* health = nullptr;
  std::string source;  ///< "<path>" or "<path>#<point label>"
};

/// Finds the fabric_health section in `doc`: either the document itself or
/// an embedded bench point. `point` filters bench points by label ("" =
/// first point with a health section).
const JsonValue* find_health(const JsonValue& doc, const std::string& point,
                             std::string* label_out, std::string& err) {
  const std::string schema = doc.str_or("schema", "");
  if (schema == "presto.fabric_health") return &doc;
  const JsonValue& points = doc.get("points");
  if (points.kind() != JsonValue::Kind::kArray) {
    err = "document is neither a fabric_health section nor a bench file "
          "with points (schema '" + schema + "')";
    return nullptr;
  }
  for (const JsonValue& p : points.as_array()) {
    const std::string label = p.str_or("label", "");
    if (!point.empty() && label != point) continue;
    const JsonValue& h = p.get("fabric_health");
    if (h.kind() == JsonValue::Kind::kObject) {
      if (label_out != nullptr) *label_out = label;
      return &h;
    }
    if (!point.empty()) {
      err = "point '" + point + "' has no fabric_health section";
      return nullptr;
    }
  }
  err = point.empty()
            ? std::string("no point carries a fabric_health section")
            : "no point labelled '" + point + "'";
  return nullptr;
}

bool load_health(const std::string& path, const std::string& point,
                 LoadedHealth& out, std::string& err) {
  if (!presto::telemetry::load_json_file(path, out.doc, err)) return false;
  std::string label;
  out.health = find_health(out.doc, point, &label, err);
  if (out.health == nullptr) {
    err = path + ": " + err;
    return false;
  }
  out.source = label.empty() ? path : path + "#" + label;
  return true;
}

std::uint64_t u64(const JsonValue& v, const char* key) {
  return static_cast<std::uint64_t>(v.num_or(key, 0));
}

/// All label names present in either health section. The parsed object map
/// sorts keys, so the order is deterministic (alphabetical).
std::vector<std::string> label_union(const JsonValue& a, const JsonValue& b) {
  std::vector<std::string> names;
  auto collect = [&names](const JsonValue& h) {
    const JsonValue& labels = h.get("labels");
    if (labels.kind() != JsonValue::Kind::kObject) return;
    for (const auto& [name, _] : labels.as_object()) {
      bool seen = false;
      for (const std::string& n : names) seen = seen || n == name;
      if (!seen) names.push_back(name);
    }
  };
  collect(a);
  collect(b);
  return names;
}

void print_anomalies(const JsonValue& h) {
  const JsonValue& an = h.get("anomalies");
  const JsonValue& imb = an.get("imbalance");
  std::printf("  imbalance      index %.3f over %llu labels%s",
              imb.num_or("index", 0),
              static_cast<unsigned long long>(u64(imb, "active_labels")),
              imb.get("flagged").as_bool() ? "  [FLAGGED" : "");
  if (imb.get("flagged").as_bool()) {
    std::printf(" hot=%s cold=%s]", imb.str_or("hot_label", "?").c_str(),
                imb.str_or("cold_label", "?").c_str());
  }
  std::printf("\n");

  const JsonValue& loss = an.get("loss_outliers");
  if (loss.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& o : loss.as_array()) {
      std::printf("  loss outlier   %-6s %.3f%% vs mean %.3f%% "
                  "(%llu drops)  [FLAGGED]\n",
                  o.str_or("label", "?").c_str(), o.num_or("loss_pct", 0),
                  o.num_or("mean_loss_pct", 0),
                  static_cast<unsigned long long>(u64(o, "drop_packets")));
    }
  }
  const JsonValue& hot = an.get("hotspots");
  if (hot.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& o : hot.as_array()) {
      std::printf("  hotspot        sw%llu/p%llu util %.3f for %llu "
                  "reports  [FLAGGED]\n",
                  static_cast<unsigned long long>(u64(o, "switch")),
                  static_cast<unsigned long long>(u64(o, "port")),
                  o.num_or("util_ewma", 0),
                  static_cast<unsigned long long>(u64(o, "streak")));
    }
  }
  const JsonValue& silent = an.get("silent_switches");
  if (silent.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& o : silent.as_array()) {
      const double st = o.num_or("staleness_periods", 0);
      if (st < 0) {
        std::printf("  silent switch  sw%llu never reported  [FLAGGED]\n",
                    static_cast<unsigned long long>(u64(o, "switch")));
      } else {
        std::printf("  silent switch  sw%llu stale %.1f periods  [FLAGGED]\n",
                    static_cast<unsigned long long>(u64(o, "switch")), st);
      }
    }
  }
  const JsonValue& bursts = an.get("microbursts");
  if (bursts.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& o : bursts.as_array()) {
      std::printf("  microburst     sw%llu/p%llu %llu episodes, "
                  "max %.1f us, peak %llu B\n",
                  static_cast<unsigned long long>(u64(o, "switch")),
                  static_cast<unsigned long long>(u64(o, "port")),
                  static_cast<unsigned long long>(u64(o, "episodes")),
                  o.num_or("max_duration_ns", 0) / 1000.0,
                  static_cast<unsigned long long>(u64(o, "peak_bytes")));
    }
  }
}

void summarize(const LoadedHealth& lh) {
  const JsonValue& h = *lh.health;
  const JsonValue& coll = h.get("collector");
  std::printf("%s  (%s v%d, generated at %.3f ms)\n", lh.source.c_str(),
              h.str_or("schema", "?").c_str(),
              static_cast<int>(h.num_or("schema_version", 0)),
              h.num_or("generated_at_ns", 0) / 1e6);
  std::printf("collector: %llu switches, %llu reports accepted "
              "(%llu received, %llu dup, %llu reordered, %llu lost), "
              "%llu silent\n",
              static_cast<unsigned long long>(u64(coll, "switches")),
              static_cast<unsigned long long>(u64(coll, "reports_accepted")),
              static_cast<unsigned long long>(u64(coll, "reports_received")),
              static_cast<unsigned long long>(u64(coll, "duplicates")),
              static_cast<unsigned long long>(u64(coll, "reordered")),
              static_cast<unsigned long long>(u64(coll, "lost")),
              static_cast<unsigned long long>(u64(coll, "silent_switches")));

  std::printf("\nper-label traffic\n");
  std::printf("%-8s %14s %12s %10s %8s %12s %12s\n", "label", "tx_bytes",
              "tx_packets", "drops", "loss%", "depth_p99", "depth_max");
  const JsonValue& labels = h.get("labels");
  if (labels.kind() == JsonValue::Kind::kObject) {
    for (const auto& [name, l] : labels.as_object()) {
      std::printf("%-8s %14llu %12llu %10llu %7.3f%% %12.0f %12.0f\n",
                  name.c_str(),
                  static_cast<unsigned long long>(u64(l, "tx_bytes")),
                  static_cast<unsigned long long>(u64(l, "tx_packets")),
                  static_cast<unsigned long long>(u64(l, "drop_packets")),
                  l.num_or("loss_pct", 0), l.num_or("depth_p99", 0),
                  l.num_or("depth_max", 0));
    }
  }

  std::printf("\nanomalies\n");
  print_anomalies(h);
}

void diff(const LoadedHealth& a, const LoadedHealth& b) {
  const JsonValue& ha = *a.health;
  const JsonValue& hb = *b.health;
  std::printf("A: %s\nB: %s\n", a.source.c_str(), b.source.c_str());

  const JsonValue& ca = ha.get("collector");
  const JsonValue& cb = hb.get("collector");
  std::printf("\ncollector                 %14s %14s %14s\n", "A", "B",
              "delta");
  for (const char* key :
       {"reports_received", "reports_accepted", "duplicates", "reordered",
        "lost", "silent_switches"}) {
    const auto va = static_cast<long long>(u64(ca, key));
    const auto vb = static_cast<long long>(u64(cb, key));
    std::printf("  %-22s %14lld %14lld %+14lld\n", key, va, vb, vb - va);
  }

  std::printf("\nper-label loss%% / tx_bytes\n");
  std::printf("  %-8s %10s %10s  %14s %14s\n", "label", "A loss%", "B loss%",
              "A bytes", "B bytes");
  for (const std::string& name : label_union(ha, hb)) {
    const JsonValue& la = ha.get("labels").get(name);
    const JsonValue& lb = hb.get("labels").get(name);
    std::printf("  %-8s %9.3f%% %9.3f%%  %14llu %14llu\n", name.c_str(),
                la.num_or("loss_pct", 0), lb.num_or("loss_pct", 0),
                static_cast<unsigned long long>(u64(la, "tx_bytes")),
                static_cast<unsigned long long>(u64(lb, "tx_bytes")));
  }

  const double ia = ha.get("anomalies").get("imbalance").num_or("index", 0);
  const double ib = hb.get("anomalies").get("imbalance").num_or("index", 0);
  std::printf("\nimbalance index: A %.3f -> B %.3f (%+.3f)\n", ia, ib,
              ib - ia);
  std::printf("\nanomalies in A\n");
  print_anomalies(ha);
  std::printf("\nanomalies in B\n");
  print_anomalies(hb);
}

/// `summary`, `extract` and `diff`: the same flags, one or two files.
int run_health(const std::string& cmd, const std::vector<std::string>& args) {
  std::string point;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--point" && i + 1 < args.size()) {
      point = args[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      files.push_back(arg);
    } else {
      return usage();
    }
  }
  if (files.size() != (cmd == "diff" ? 2u : 1u)) return usage();

  std::vector<LoadedHealth> loaded(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::string err;
    if (!load_health(files[i], point, loaded[i], err)) {
      std::fprintf(stderr, "report: %s\n", err.c_str());
      return 1;
    }
  }
  if (cmd == "diff") {
    diff(loaded[0], loaded[1]);
  } else if (cmd == "extract") {
    presto::telemetry::JsonWriter w;
    render(*loaded[0].health, w);
    std::printf("%s\n", std::move(w).str().c_str());
  } else {
    summarize(loaded[0]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "spans") return run_spans(args);
  if (cmd == "summary" || cmd == "extract" || cmd == "diff") {
    return run_health(cmd, args);
  }
  return usage();
}
