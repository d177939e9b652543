// Minimal JSON emitter (no external dependencies) + the schema-versioned
// snapshot serialization used by the bench `--json` output.
//
// The writer produces deterministic output: callers emit keys in a fixed
// order and Snapshot maps iterate sorted by name; doubles are printed with
// %.17g so values round-trip exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace presto::telemetry {

/// Schema identifier stamped into every emitted document. Bump the version
/// on any backwards-incompatible change to the layout.
inline constexpr const char* kJsonSchemaName = "presto.bench";
inline constexpr int kJsonSchemaVersion = 1;

/// Streaming JSON builder. Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("x"); w.value(1.5);
///   w.key("list"); w.begin_array(); w.value("a"); w.end_array();
///   w.end_object();
///   std::string doc = std::move(w).str();
/// The writer inserts commas automatically and indents two spaces per level.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(const std::string& k);

  void value(const std::string& v) { scalar(quoted(v)); }
  void value(const char* v) { scalar(quoted(v)); }
  void value(double v);
  void value(std::uint64_t v) { scalar(std::to_string(v)); }
  void value(std::int64_t v) { scalar(std::to_string(v)); }
  void value(int v) { scalar(std::to_string(v)); }
  void value(bool v) { scalar(v ? "true" : "false"); }

  /// Splices a prerendered JSON value (e.g. a nested document produced by
  /// another JsonWriter) as the next element, re-indenting its lines to the
  /// current nesting level. The caller guarantees it is valid JSON.
  void raw(const std::string& prerendered);

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  static std::string quoted(const std::string& s);
  void open(char c);
  void close(char c);
  void scalar(const std::string& s);
  void separate();
  void indent();

  std::string out_;
  /// One flag per nesting level: "this container already has an element".
  std::vector<bool> has_elem_;
  bool after_key_ = false;
};

/// Serializes a telemetry snapshot as one JSON object:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {name: {count, sum, min, max, mean, buckets}}}
void write_snapshot(JsonWriter& w, const Snapshot& snap);

}  // namespace presto::telemetry
