#include "mcsim/util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "mcsim/obs/json_write.hpp"

namespace mcsim::json {
namespace {

struct ValueWriter {
  std::ostream& os;

  void operator()(std::nullptr_t) const { os << "null"; }
  void operator()(bool b) const { os << (b ? "true" : "false"); }
  // Scalars share the obs writers, so serve replies, event logs and
  // reports agree on bytes.
  void operator()(double d) const { os << obs::JsonNumber{d}; }
  void operator()(const std::string& s) const { os << obs::JsonString{s}; }
  void operator()(const JsonArray& arr) const {
    os << '[';
    bool first = true;
    for (const JsonValue& v : arr) {
      if (!first) os << ',';
      first = false;
      writeJson(os, v);
    }
    os << ']';
  }
  void operator()(const JsonObject& obj) const {
    os << '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) os << ',';
      first = false;
      os << obs::JsonString{key} << ':';
      writeJson(os, value);
    }
    os << '}';
  }
};

/// Visit the storage without exposing it: round-trip through the accessors.
void writeValue(std::ostream& os, const JsonValue& v) {
  const ValueWriter w{os};
  if (v.isNull()) w(nullptr);
  else if (v.isBool()) w(v.asBool());
  else if (v.isNumber()) w(v.asNumber());
  else if (v.isString()) w(v.asString());
  else if (v.isArray()) w(v.asArray());
  else w(v.asObject());
}

}  // namespace

void writeJson(std::ostream& os, const JsonValue& value) {
  writeValue(os, value);
}

std::string dumpJson(const JsonValue& value) {
  std::ostringstream os;
  writeJson(os, value);
  return os.str();
}

void JsonParser::fail(const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " +
                           std::to_string(pos_));
}

void JsonParser::skipSpace() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])))
    ++pos_;
}

char JsonParser::peek() {
  if (pos_ >= text_.size()) fail("unexpected end");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonParser::consumeWord(const char* word) {
  std::size_t n = 0;
  while (word[n] != '\0') ++n;
  if (text_.compare(pos_, n, word) != 0) return false;
  pos_ += n;
  return true;
}

JsonValue JsonParser::parseValue() {
  skipSpace();
  switch (peek()) {
    case '{':
    case '[': {
      if (++depth_ > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      JsonValue v = text_[pos_] == '{' ? parseObject() : parseArray();
      --depth_;
      return v;
    }
    case '"': return JsonValue(parseString());
    case 't':
      if (consumeWord("true")) return JsonValue(true);
      fail("bad literal");
    case 'f':
      if (consumeWord("false")) return JsonValue(false);
      fail("bad literal");
    case 'n':
      if (consumeWord("null")) return JsonValue(nullptr);
      fail("bad literal");
    default: return parseNumber();
  }
}

JsonValue JsonParser::parseObject() {
  expect('{');
  JsonObject obj;
  skipSpace();
  if (peek() == '}') {
    ++pos_;
    return JsonValue(std::move(obj));
  }
  while (true) {
    skipSpace();
    const std::size_t keyAt = pos_;
    const auto [slot, fresh] = obj.try_emplace(parseString());
    if (!fresh) {
      pos_ = keyAt;
      fail("duplicate key '" + slot->first + "'");
    }
    skipSpace();
    expect(':');
    slot->second = parseValue();
    skipSpace();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect('}');
    return JsonValue(std::move(obj));
  }
}

JsonValue JsonParser::parseArray() {
  expect('[');
  JsonArray arr;
  skipSpace();
  if (peek() == ']') {
    ++pos_;
    return JsonValue(std::move(arr));
  }
  while (true) {
    arr.push_back(parseValue());
    skipSpace();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect(']');
    return JsonValue(std::move(arr));
  }
}

std::string JsonParser::parseString() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    char esc = text_[pos_++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // Exactly four hex digits: from_chars stops at anything else.
        unsigned code = 0;
        const char* digits = text_.data() + pos_;
        if (pos_ + 4 > text_.size() ||
            std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4)
          fail("bad \\u escape");
        pos_ += 4;
        // ASCII only; the exporters never emit anything that needs UTF-8.
        if (code > 0x7f) fail("non-ascii \\u escape");
        out.push_back(static_cast<char>(code));
        break;
      }
      default: fail("bad escape");
    }
  }
}

JsonValue JsonParser::parseNumber() {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-'))
    ++pos_;
  if (pos_ == start) fail("expected number");
  std::size_t used = 0;
  const std::string slice = text_.substr(start, pos_ - start);
  double value = 0.0;
  try {
    value = std::stod(slice, &used);
  } catch (const std::out_of_range&) {
    pos_ = start;
    fail("number out of range");
  } catch (const std::invalid_argument&) {
    // `used` stays 0, so the check below refuses the slice.
  }
  if (used != slice.size()) {
    pos_ = start;
    fail("bad number");
  }
  return JsonValue(value);
}

JsonValue parseJson(const std::string& text) {
  return JsonParser(text).parse();
}

std::optional<std::string> unknownKeyError(
    const JsonValue& object, const std::string& where,
    const std::vector<std::string>& known) {
  for (const auto& entry : object.asObject()) {
    if (std::find(known.begin(), known.end(), entry.first) != known.end())
      continue;
    std::string error =
        where + ": unknown key '" + entry.first + "' (known keys: ";
    for (std::size_t i = 0; i < known.size(); ++i)
      error += (i == 0 ? "" : ", ") + known[i];
    return error + ")";
  }
  return std::nullopt;
}

}  // namespace mcsim::json
