// Minimal JSON reader (objects, arrays, strings, numbers, bools, null).
// The telemetry JsonValue is write-only by design; fault plans were the
// first thing the repo *read* as JSON and the priors KnowledgeStore is the
// second, so the reader lives here where both can share it.  It covers
// exactly the dialect JsonValue::dump emits.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bofl::telemetry {

struct JsonNode {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonNode> array;
  std::vector<std::pair<std::string, JsonNode>> object;

  [[nodiscard]] const JsonNode* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

/// Parse `text` as a single JSON value; throws common/error on malformed
/// input or trailing characters.
[[nodiscard]] JsonNode parse_json(const std::string& text);

/// Read object field `key` as a number, or `fallback` when absent.  Throws
/// when the field exists but is not a number.
[[nodiscard]] double number_field(const JsonNode& node, const std::string& key,
                                  double fallback);

/// Read `node` as an integer in [lo, 2^53), the range where every integer
/// is an exact double.  Throws before any cast when the node is not a
/// number, has a fraction or lies outside the range; `what` names the
/// value in the message.
[[nodiscard]] std::int64_t integer_value(const JsonNode& node,
                                         std::int64_t lo,
                                         const std::string& what);

/// Read object field `key` through integer_value, or `fallback` when absent.
[[nodiscard]] std::int64_t integer_field(const JsonNode& node,
                                         const std::string& key,
                                         std::int64_t fallback,
                                         std::int64_t lo = 0);

}  // namespace bofl::telemetry
