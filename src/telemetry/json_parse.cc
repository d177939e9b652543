#include "telemetry/json_parse.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace presto::telemetry {
namespace {

const JsonValue& null_value() {
  static const JsonValue v = JsonValue::make_null();
  return v;
}

}  // namespace

const JsonValue& JsonValue::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return null_value();
  auto it = obj_.find(key);
  return it == obj_.end() ? null_value() : it->second;
}

double JsonValue::num_or(std::string_view key, double fallback) const {
  const JsonValue& v = get(key);
  return v.kind() == Kind::kNumber ? v.as_double() : fallback;
}

std::string JsonValue::str_or(std::string_view key,
                              std::string fallback) const {
  const JsonValue& v = get(key);
  return v.kind() == Kind::kString ? v.as_string() : std::move(fallback);
}

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string& error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing data");
    return true;
  }

  /// Byte offset of the failure after parse() returned false: every
  /// failing step returns at once, so the cursor stays where fail() saw it.
  std::size_t offset() const { return pos_; }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* msg) {
    error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected '\"'");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogates left as-is; the
            // exporter never emits them).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected number");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.kind_ = JsonValue::Kind::kNumber;
    out.num_ = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("too deep");
    if (pos_ >= text_.size()) return fail("unexpected end");
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        out.kind_ = JsonValue::Kind::kObject;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!string(key)) return false;
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_] != ':') {
            return fail("expected ':'");
          }
          ++pos_;
          skip_ws();
          JsonValue v;
          if (!value(v, depth + 1)) return false;
          out.obj_.insert_or_assign(std::move(key), std::move(v));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos_;
        out.kind_ = JsonValue::Kind::kArray;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          skip_ws();
          JsonValue v;
          if (!value(v, depth + 1)) return false;
          out.arr_.push_back(std::move(v));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '"': {
        out.kind_ = JsonValue::Kind::kString;
        return string(out.str_);
      }
      case 't':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return literal("true");
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return literal("false");
      case 'n':
        out.kind_ = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  std::string_view text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  out = JsonValue::make_null();
  JsonParser p(text, error);
  return p.parse(out);
}

bool load_json_file(const std::string& path, JsonValue& out,
                    std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  out = JsonValue::make_null();
  std::string message;
  JsonParser p(text, message);
  if (p.parse(out)) return true;
  const std::string_view parsed = std::string_view(text).substr(0, p.offset());
  const auto line = 1 + std::count(parsed.begin(), parsed.end(), '\n');
  error = path + ":" + std::to_string(line) + ": " + message;
  return false;
}

}  // namespace presto::telemetry
