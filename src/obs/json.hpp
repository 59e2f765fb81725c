#pragma once
// Minimal append-only JSON emitter (docs/observability.md).
//
// Every machine-readable artifact the observability layer produces — run
// manifests, Chrome trace timelines, JSONL log records — is assembled with
// this one writer, so escaping and number formatting are uniform and there
// is exactly one place to audit. Deliberately not a JSON *parser*: the
// repo emits telemetry, and Python tooling (perfbench/run.py, CI) reads it.
//
// Header-only so tca_obs has no dependency below it.

#include <cstdint>
#include <cstdio>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace tca::obs {

/// Streaming JSON writer with explicit begin/end calls. The caller is
/// responsible for well-formedness (matched begin/end, keys only inside
/// objects); the writer handles commas, colons, and escaping.
class JsonWriter {
 public:
  JsonWriter& begin_object() {
    separate();
    out_ += '{';
    needs_comma_.push_back(false);
    return *this;
  }

  JsonWriter& end_object() {
    out_ += '}';
    needs_comma_.pop_back();
    mark_value();
    return *this;
  }

  JsonWriter& begin_array() {
    separate();
    out_ += '[';
    needs_comma_.push_back(false);
    return *this;
  }

  JsonWriter& end_array() {
    out_ += ']';
    needs_comma_.pop_back();
    mark_value();
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    separate();
    append_string(k);
    out_ += ':';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    separate();
    append_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }

  JsonWriter& value(std::uint64_t v) {
    separate();
    out_ += std::to_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separate();
    out_ += std::to_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<std::uint64_t>(v));
  }

  JsonWriter& value(double v) {
    if (!std::isfinite(v)) return null();
    separate();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    mark_value();
    return *this;
  }

  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    mark_value();
    return *this;
  }

  JsonWriter& null() {
    separate();
    out_ += "null";
    mark_value();
    return *this;
  }

  /// key + value in one call (the common case).
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  [[nodiscard]] const std::string& str() const& { return out_; }
  [[nodiscard]] std::string str() && { return std::move(out_); }

 private:
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!needs_comma_.empty() && needs_comma_.back()) out_ += ',';
  }

  void mark_value() {
    if (!needs_comma_.empty()) needs_comma_.back() = true;
  }

  void append_string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", u);
            out_ += buf;
          } else {
            out_ += c;  // UTF-8 passes through untouched
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

}  // namespace tca::obs
