#include "common/flags.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace bofl {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    BOFL_REQUIRE(!body.empty(), "bare '--' is not a valid flag");
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
}

bool FlagParser::has(const std::string& name) const {
  return values_.contains(name);
}

std::string FlagParser::get(const std::string& name,
                            const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double FlagParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  BOFL_REQUIRE(end != it->second.c_str() && *end == '\0',
               "flag --" + name + " expects a number, got: " + it->second);
  return value;
}

std::int64_t FlagParser::get_int(const std::string& name,
                                 std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  BOFL_REQUIRE(end != it->second.c_str() && *end == '\0',
               "flag --" + name + " expects an integer, got: " + it->second);
  BOFL_REQUIRE(errno != ERANGE,
               "flag --" + name + " is out of range: " + it->second);
  return value;
}

std::size_t FlagParser::get_count(const std::string& name,
                                  std::size_t fallback) const {
  if (!has(name)) {
    return fallback;
  }
  const std::int64_t value = get_int(name, 0);
  BOFL_REQUIRE(value >= 0, "flag --" + name +
                               " expects a non-negative count, got: " +
                               get(name, ""));
  return static_cast<std::size_t>(value);
}

bool FlagParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> FlagParser::keys() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace bofl
