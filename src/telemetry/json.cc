#include "telemetry/json.h"

#include <cmath>
#include <cstdio>

namespace presto::telemetry {

std::string JsonWriter::quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::separate() {
  if (after_key_) return;  // value follows "key": directly
  if (!has_elem_.empty()) {
    if (has_elem_.back()) out_ += ",";
    if (!out_.empty()) out_ += "\n";
    indent();
  }
}

void JsonWriter::indent() {
  out_.append(2 * has_elem_.size(), ' ');
}

void JsonWriter::open(char c) {
  separate();
  if (!has_elem_.empty()) has_elem_.back() = true;
  after_key_ = false;
  out_ += c;
  has_elem_.push_back(false);
}

void JsonWriter::close(char c) {
  const bool had = !has_elem_.empty() && has_elem_.back();
  if (!has_elem_.empty()) has_elem_.pop_back();
  if (had) {
    out_ += "\n";
    indent();
  }
  out_ += c;
}

void JsonWriter::key(const std::string& k) {
  separate();
  if (!has_elem_.empty()) has_elem_.back() = true;
  out_ += quoted(k);
  out_ += ": ";
  after_key_ = true;
}

void JsonWriter::scalar(const std::string& s) {
  separate();
  if (!has_elem_.empty()) has_elem_.back() = true;
  after_key_ = false;
  out_ += s;
}

void JsonWriter::raw(const std::string& prerendered) {
  separate();
  if (!has_elem_.empty()) has_elem_.back() = true;
  after_key_ = false;
  const std::string pad(2 * has_elem_.size(), ' ');
  for (std::size_t i = 0; i < prerendered.size(); ++i) {
    const char c = prerendered[i];
    out_ += c;
    if (c == '\n' && i + 1 < prerendered.size()) out_ += pad;
  }
}

void JsonWriter::value(double v) {
  if (!std::isfinite(v)) {
    scalar("null");  // JSON has no Inf/NaN
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  scalar(buf);
}

void write_snapshot(JsonWriter& w, const Snapshot& snap) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : snap.counters) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : snap.gauges) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(h.count);
    w.key("sum");
    w.value(h.sum);
    w.key("min");
    w.value(h.min);
    w.key("max");
    w.value(h.max);
    w.key("mean");
    w.value(h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count));
    w.key("buckets");
    w.begin_array();
    for (std::uint64_t b : h.buckets) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace presto::telemetry
