#include "mcsim/util/args.hpp"

#include <charconv>
#include <system_error>

namespace mcsim {
namespace {

/// All of `text` as a double, or nullopt.
std::optional<double> wholeNumber(const std::string& text) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(text, &used);
    if (used == text.size()) return parsed;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// All of `text` as an int, or nullopt.
std::optional<int> wholeInt(const std::string& text) {
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(text, &used);
    if (used == text.size()) return parsed;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// Each comma-separated item of `text`, parsed whole by `parse`.
template <class T, class Parse>
std::vector<T> parseList(const std::string& name, const std::string& text,
                         const char* what, Parse parse) {
  std::vector<T> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::string item = text.substr(start, comma - start);
    const std::optional<T> parsed = parse(item);
    if (!parsed)
      throw std::invalid_argument("--" + name + ": bad " + what + " '" +
                                  item + "' in list '" + text + "'");
    out.push_back(*parsed);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

}  // namespace

ArgParser::ArgParser(std::string command, std::set<std::string> valueOptions,
                     std::set<std::string> flags)
    : command_(std::move(command)), valueOptions_(std::move(valueOptions)),
      flagOptions_(std::move(flags)) {}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument '" + arg + "' for " +
                                  command_);
    std::string name = arg.substr(2);
    std::optional<std::string> inlineValue;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inlineValue = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    if (flagOptions_.count(name)) {
      if (inlineValue)
        throw std::invalid_argument("--" + name + " takes no value");
      if (!flags_.insert(name).second)
        throw std::invalid_argument("--" + name + " given twice");
      continue;
    }
    if (!valueOptions_.count(name))
      throw std::invalid_argument("unknown option --" + name + " for " +
                                  command_);
    std::string value;
    if (inlineValue) {
      value = *inlineValue;
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("--" + name + " needs a value");
      value = argv[++i];
    }
    if (!values_.emplace(name, std::move(value)).second)
      throw std::invalid_argument("--" + name + " given twice");
  }
}

bool ArgParser::hasFlag(const std::string& name) const {
  if (!flagOptions_.count(name))
    throw std::logic_error("--" + name + " is not a flag of " + command_);
  return flags_.count(name) != 0;
}

std::optional<std::string> ArgParser::value(const std::string& name) const {
  if (!valueOptions_.count(name))
    throw std::logic_error("--" + name + " is not a value option of " +
                           command_);
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::valueOr(const std::string& name,
                               const std::string& fallback) const {
  return value(name).value_or(fallback);
}

double ArgParser::numberOr(const std::string& name, double fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  const auto parsed = wholeNumber(*v);
  if (!parsed)
    throw std::invalid_argument("--" + name + ": bad number '" + *v + "'");
  return *parsed;
}

int ArgParser::intOr(const std::string& name, int fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  const auto parsed = wholeInt(*v);
  if (!parsed)
    throw std::invalid_argument("--" + name + ": bad integer '" + *v + "'");
  return *parsed;
}

std::uint64_t ArgParser::u64Or(const std::string& name,
                               std::uint64_t fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  std::uint64_t parsed = 0;
  const char* last = v->data() + v->size();
  const auto [end, ec] = std::from_chars(v->data(), last, parsed);
  if (ec != std::errc() || end != last)
    throw std::invalid_argument("--" + name +
                                ": bad unsigned 64-bit integer '" + *v + "'");
  return parsed;
}

std::vector<int> ArgParser::intListOr(const std::string& name,
                                      std::vector<int> fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  return parseList<int>(name, *v, "integer", wholeInt);
}

std::vector<double> ArgParser::numberListOr(
    const std::string& name, std::vector<double> fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  return parseList<double>(name, *v, "number", wholeNumber);
}

}  // namespace mcsim
