#include "telemetry/json_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace bofl::telemetry {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonNode parse() {
    JsonNode root = parse_value();
    skip_ws();
    BOFL_REQUIRE(pos_ == text_.size(), "trailing characters after JSON value");
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    BOFL_REQUIRE(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    BOFL_REQUIRE(peek() == c, std::string("expected '") + c + "' in JSON");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, literal) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  JsonNode parse_value() {
    JsonNode node;
    switch (peek()) {
      case '{': {
        node.type = JsonNode::Type::kObject;
        ++pos_;
        if (peek() == '}') {
          ++pos_;
          return node;
        }
        while (true) {
          std::string key = parse_string();
          expect(':');
          node.object.emplace_back(std::move(key), parse_value());
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return node;
        }
      }
      case '[': {
        node.type = JsonNode::Type::kArray;
        ++pos_;
        if (peek() == ']') {
          ++pos_;
          return node;
        }
        while (true) {
          node.array.push_back(parse_value());
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return node;
        }
      }
      case '"':
        node.type = JsonNode::Type::kString;
        node.string = parse_string();
        return node;
      case 't':
        BOFL_REQUIRE(consume_literal("true"), "malformed JSON literal");
        node.type = JsonNode::Type::kBool;
        node.boolean = true;
        return node;
      case 'f':
        BOFL_REQUIRE(consume_literal("false"), "malformed JSON literal");
        node.type = JsonNode::Type::kBool;
        node.boolean = false;
        return node;
      case 'n':
        BOFL_REQUIRE(consume_literal("null"), "malformed JSON literal");
        node.type = JsonNode::Type::kNull;
        return node;
      default: {
        node.type = JsonNode::Type::kNumber;
        const char* begin = text_.c_str() + pos_;
        char* end = nullptr;
        node.number = std::strtod(begin, &end);
        BOFL_REQUIRE(end != begin, "malformed JSON number");
        // strtod also reads inf, nan and out-of-range literals such as
        // 1e999 (as inf); JSON has no non-finite numbers.
        BOFL_REQUIRE(std::isfinite(node.number), "non-finite JSON number");
        pos_ += static_cast<std::size_t>(end - begin);
        return node;
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      BOFL_REQUIRE(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      BOFL_REQUIRE(pos_ < text_.size(), "unterminated JSON escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          BOFL_REQUIRE(pos_ + 4 <= text_.size(), "truncated \\u escape");
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The repo's JSON dialects only carry ASCII names; reject wider.
          BOFL_REQUIRE(code < 0x80, "non-ASCII \\u escape in JSON input");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          BOFL_REQUIRE(false, "unsupported JSON escape");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonNode parse_json(const std::string& text) {
  JsonParser parser(text);
  return parser.parse();
}

double number_field(const JsonNode& node, const std::string& key,
                    double fallback) {
  const JsonNode* field = node.find(key);
  if (field == nullptr) {
    return fallback;
  }
  BOFL_REQUIRE(field->type == JsonNode::Type::kNumber,
               "JSON field '" + key + "' must be a number");
  return field->number;
}

std::int64_t integer_value(const JsonNode& node, std::int64_t lo,
                           const std::string& what) {
  BOFL_REQUIRE(node.type == JsonNode::Type::kNumber,
               "JSON " + what + " must be a number");
  const double value = node.number;
  BOFL_REQUIRE(value >= static_cast<double>(lo) && value < 0x1.0p53 &&
                   value == std::floor(value),
               "JSON " + what + " must be an integer in [" +
                   std::to_string(lo) + ", 2^53)");
  return static_cast<std::int64_t>(value);
}

std::int64_t integer_field(const JsonNode& node, const std::string& key,
                           std::int64_t fallback, std::int64_t lo) {
  const JsonNode* field = node.find(key);
  return field == nullptr ? fallback
                          : integer_value(*field, lo, "field '" + key + "'");
}

}  // namespace bofl::telemetry
