// Minimal JSON helpers shared by the metrics, trace and telemetry
// layers. The write side (escape/number) serves every exporter; the
// read side (JsonValue/JsonParse) exists for the fleet-telemetry
// pipeline, which merges session-record JSONL and rollup files written
// by earlier runs (docs/observability.md, "Fleet telemetry").
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wearlock::obs {

/// Escape a string for embedding between double quotes in JSON
/// (control characters, quotes, backslashes; UTF-8 passes through).
std::string JsonEscape(const std::string& s);

/// Render a double as a JSON number. Non-finite values (which JSON
/// cannot represent) become null. Finite values round-trip exactly
/// (%.17g), which the rollup merge path relies on.
std::string JsonNumber(double v);

/// One parsed JSON value. A small DOM, not a streaming API: telemetry
/// files are kilobytes-to-megabytes, never unbounded.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered (the order the file listed the keys).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_number() const { return kind == Kind::kNumber; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience extractors with defaults (telemetry files are
  /// best-effort inputs; absent fields fall back instead of throwing).
  double NumberOr(double fallback) const;
  std::string StringOr(const std::string& fallback) const;
  bool BoolOr(bool fallback) const;
};

/// Parse one complete JSON value (surrounding whitespace allowed).
/// Returns nullopt on malformed input, with a human-readable reason in
/// *error when provided.
std::optional<JsonValue> JsonParse(const std::string& text,
                                   std::string* error = nullptr);

}  // namespace wearlock::obs
