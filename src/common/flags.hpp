// A tiny command-line flag parser for the tools and examples.
//
// Accepted syntax:  --key=value   --key value   --switch   positional
// Unknown flags are the caller's business: ask for `keys()` and validate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bofl {

class FlagParser {
 public:
  /// Parse argv (argv[0] is skipped).  A token starting with "--" is a flag;
  /// if the next token does not start with "--" it becomes the value,
  /// otherwise the flag is boolean ("true").  "--key=value" works too.
  FlagParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// String value, or `fallback` if absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Numeric values; throw std::invalid_argument on unparsable content
  /// and on integers outside the int64 range.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// A size or count (clients, shards, threads): get_int that also throws
  /// std::invalid_argument on a negative value instead of wrapping it.
  [[nodiscard]] std::size_t get_count(const std::string& name,
                                      std::size_t fallback) const;

  /// Boolean switch: present (without value or with "true"/"1") -> true.
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// All flag names seen, sorted (for unknown-flag validation).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bofl
