// Minimal JSON for the service wire protocol (encodesat-service-v1).
//
// The repo deliberately carries no third-party JSON dependency — telemetry
// and trace output are string-built — but the *request* side of the NDJSON
// protocol needs a real parser (constraint text arrives as an escaped JSON
// string). This is a small, strict, recursive-descent implementation of
// RFC 8259: objects, arrays, strings (full escape set incl. \uXXXX with
// surrogate pairs, decoded to UTF-8), numbers, true/false/null. It rejects
// trailing garbage, unpaired surrogates, and nesting deeper than
// kMaxDepth. Numbers are held as double — adequate for the protocol's
// small integers (deadlines, budgets, thread counts).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/strings.h"  // json_escape, the matching writer

namespace encodesat {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (duplicate keys: last wins on find()).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed). Returns false and fills `*error` (when non-null)
/// with a byte-offset diagnostic on malformed input.
bool json_parse(const std::string& text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace encodesat
