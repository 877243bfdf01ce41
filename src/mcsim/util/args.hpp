// Minimal command-line argument parser for the examples and the CLI tool.
//
// Supports `--key value`, `--key=value` and boolean `--flag`; an unknown
// option or a positional argument is an error naming it and the command
// (catching typos beats silently ignoring them).  The typed readers consume
// each value (or each list item) whole: trailing text is an error naming
// the option, never ignored.  Reading a name that was not declared is a
// program bug: std::logic_error, in every build type.
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
  /// Declare `command`'s options before parsing.  `flags` take no value.
  ArgParser(std::string command, std::set<std::string> valueOptions,
            std::set<std::string> flags);

  /// Parse argv (excluding argv[0]).  Throws std::invalid_argument on
  /// unknown options, arguments, missing values, or duplicated options.
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

 private:
  std::string command_;
  std::set<std::string> valueOptions_;
  std::set<std::string> flagOptions_;
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
};

}  // namespace mcsim
