#include "telemetry/export.h"

#include <algorithm>
#include <cstdio>

#include "net/types.h"
#include "telemetry/json.h"

namespace presto::telemetry {
namespace {

constexpr int kPid = 1;

/// Perfetto wants microsecond timestamps; keep sub-µs precision as decimals.
double micros(sim::Time t) { return static_cast<double>(t) / 1e3; }

int label_tree(net::MacAddr label) {
  return net::is_shadow_mac(label) ? static_cast<int>(net::mac_tree(label))
                                   : -1;
}

std::string span_track_name(const Span& s) {
  std::string name = "cell " + std::to_string(s.flowcell);
  const int tree = label_tree(s.label);
  if (tree >= 0) name += " t" + std::to_string(tree);
  return name;
}

void event_common(JsonWriter& w, const char* name, const char* ph, double ts) {
  w.key("name");
  w.value(name);
  w.key("ph");
  w.value(ph);
  w.key("ts");
  w.value(ts);
  w.key("pid");
  w.value(kPid);
}

void flow_args(JsonWriter& w, const Span& s) {
  w.key("src_host");
  w.value(static_cast<std::uint64_t>(s.flow.src_host));
  w.key("dst_host");
  w.value(static_cast<std::uint64_t>(s.flow.dst_host));
  w.key("src_port");
  w.value(static_cast<std::uint64_t>(s.flow.src_port));
  w.key("dst_port");
  w.value(static_cast<std::uint64_t>(s.flow.dst_port));
  w.key("flowcell");
  w.value(s.flowcell);
  w.key("label_tree");
  w.value(label_tree(s.label));
  w.key("start_seq");
  w.value(s.start_seq);
  w.key("end_seq");
  w.value(s.end_seq);
}

std::vector<const TimeSeries*> sorted_series(const TimeSeriesSampler& s) {
  std::vector<const TimeSeries*> out = s.series();
  std::sort(out.begin(), out.end(),
            [](const TimeSeries* a, const TimeSeries* b) {
              return a->name() < b->name();
            });
  return out;
}

}  // namespace

std::string export_perfetto_json(const TimeSeriesSampler* sampler,
                                 const SpanTracer* spans) {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();

  // Process metadata so the Perfetto UI shows a named track group.
  w.begin_object();
  event_common(w, "process_name", "M", 0.0);
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value("presto flight recorder");
  w.end_object();
  w.end_object();

  if (sampler != nullptr) {
    for (const TimeSeries* ts : sorted_series(*sampler)) {
      for (const SeriesPoint& p : ts->points()) {
        w.begin_object();
        event_common(w, ts->name().c_str(), "C", micros(p.at));
        w.key("args");
        w.begin_object();
        w.key("value");
        w.value(p.value);
        w.end_object();
        w.end_object();
      }
    }
  }

  if (spans != nullptr) {
    for (const Span& s : spans->spans()) {
      if (s.closed < 0) continue;  // finalize() not called; skip dangling
      const std::string name = span_track_name(s);
      w.begin_object();
      event_common(w, name.c_str(), "b", micros(s.opened));
      w.key("cat");
      w.value("flowcell");
      w.key("id");
      w.value(static_cast<std::uint64_t>(s.id));
      w.key("args");
      w.begin_object();
      flow_args(w, s);
      w.key("dropped");
      w.value(s.dropped);
      w.key("evicted");
      w.value(s.evicted);
      w.end_object();
      w.end_object();
    }
    for (const SpanEvent& e : spans->events()) {
      const Span& s = spans->spans()[e.span - 1];
      if (s.closed < 0) continue;
      w.begin_object();
      event_common(w, span_event_kind_name(e.kind), "n", micros(e.at));
      w.key("cat");
      w.value("flowcell");
      w.key("id");
      w.value(static_cast<std::uint64_t>(e.span));
      w.key("args");
      w.begin_object();
      w.key("kind");
      w.value(span_event_kind_name(e.kind));
      w.key("node");
      w.value(static_cast<std::uint64_t>(e.node));
      w.key("port");
      w.value(static_cast<int>(e.port));
      w.key("seq");
      w.value(e.seq);
      w.key("bytes");
      w.value(e.bytes);
      w.end_object();
      w.end_object();
    }
    for (const Span& s : spans->spans()) {
      if (s.closed < 0) continue;
      const std::string name = span_track_name(s);
      w.begin_object();
      event_common(w, name.c_str(), "e", micros(s.closed));
      w.key("cat");
      w.value("flowcell");
      w.key("id");
      w.value(static_cast<std::uint64_t>(s.id));
      w.end_object();
    }
  }

  w.end_array();
  w.end_object();
  return std::move(w).str();
}

std::string export_timeseries_csv(const TimeSeriesSampler& sampler) {
  std::string out = "series,t_ns,value\n";
  char buf[64];
  for (const TimeSeries* ts : sorted_series(sampler)) {
    for (const SeriesPoint& p : ts->points()) {
      std::snprintf(buf, sizeof(buf), ",%lld,%.17g\n",
                    static_cast<long long>(p.at), p.value);
      out += ts->name();
      out += buf;
    }
  }
  return out;
}

}  // namespace presto::telemetry
