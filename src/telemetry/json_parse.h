// Minimal recursive-descent JSON reader (no external dependencies) — just
// enough to load the simulator's own artifacts back: flight-recorder
// trace.json and fabric_health documents for tools/report, soak manifests
// for check::SoakManifest. Accepts strict JSON; numbers parse as double (the
// exporter's %.17g round-trips exactly). Not built for adversarial input:
// depth is bounded, errors carry a byte offset, and that's it.
// load_json_file() is the one path from a file to a JsonValue; it turns the
// offset into a `<path>:<line>:` prefix.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace presto::telemetry {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<JsonValue>& as_array() const { return arr_; }
  const std::map<std::string, JsonValue, std::less<>>& as_object() const {
    return obj_;
  }

  /// Object member by key; null-kind sentinel when absent or not an object.
  const JsonValue& get(std::string_view key) const;
  /// Convenience: numeric member with default.
  double num_or(std::string_view key, double fallback) const;
  /// Convenience: string member with default.
  std::string str_or(std::string_view key, std::string fallback) const;

  static JsonValue make_null() { return JsonValue{}; }

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue, std::less<>> obj_;
};

/// Parses `text` into `out`. On failure returns false and sets `error` to
/// "message at offset N".
bool parse_json(std::string_view text, JsonValue& out, std::string& error);

/// Reads and parses the file at `path`. On failure returns false and sets
/// `error` to "cannot open <path>" or "<path>:<line>: message at offset N".
bool load_json_file(const std::string& path, JsonValue& out,
                    std::string& error);

}  // namespace presto::telemetry
