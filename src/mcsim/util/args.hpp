// Minimal command-line argument parser for the examples and the CLI tool.
//
// Supports `--key value`, `--key=value`, boolean `--flag`, and positional
// arguments; unknown options are an error (catching typos beats silently
// ignoring them).  The typed readers consume each value (or each list item)
// whole: trailing text is an error naming the option, never ignored.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcsim {

class ArgParser {
 public:
  /// Declare the options before parsing.  `flags` take no value.
  ArgParser(std::set<std::string> valueOptions, std::set<std::string> flags);

  /// Parse argv (excluding argv[0]).  Throws std::invalid_argument on
  /// unknown options, missing values, or duplicated options.
  void parse(int argc, const char* const* argv);

  bool hasFlag(const std::string& name) const;
  std::optional<std::string> value(const std::string& name) const;
  std::string valueOr(const std::string& name,
                      const std::string& fallback) const;
  double numberOr(const std::string& name, double fallback) const;
  int intOr(const std::string& name, int fallback) const;
  /// Decimal digits only (no sign, fraction or exponent), up to 2^64 - 1 —
  /// the reader for seeds.
  std::uint64_t u64Or(const std::string& name, std::uint64_t fallback) const;
  /// Comma-separated lists ("8,4,2"); an empty list or item is an error.
  std::vector<int> intListOr(const std::string& name,
                             std::vector<int> fallback) const;
  std::vector<double> numberListOr(const std::string& name,
                                   std::vector<double> fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::set<std::string> valueOptions_;
  std::set<std::string> flagOptions_;
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mcsim
