// Minimal JSON document model: parser + deterministic writer.
//
// Grown out of the test-suite helper (tests/common/json.hpp) when the serve
// layer needed a real request/response codec.  The model is deliberately
// small: a Value is null, bool, double, string, array or object; objects are
// std::map so iteration — and therefore serialized output — is key-ordered
// and byte-stable.  Numbers render with the same "%.12g" contract as the
// obs JSONL exporter, so a value that round-trips through parse/dump is
// byte-identical to one the exporters emitted.  Throws std::runtime_error
// on malformed input, including nesting deeper than JsonParser::kMaxDepth.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace mcsim::json {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  using Storage = std::variant<std::nullptr_t, bool, double, std::string,
                               JsonArray, JsonObject>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(Storage v) : v_(std::move(v)) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(int i) : v_(static_cast<double>(i)) {}
  JsonValue(unsigned u) : v_(static_cast<double>(u)) {}
  JsonValue(long long i) : v_(static_cast<double>(i)) {}
  JsonValue(unsigned long i) : v_(static_cast<double>(i)) {}
  JsonValue(unsigned long long i) : v_(static_cast<double>(i)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(JsonArray a) : v_(std::move(a)) {}
  JsonValue(JsonObject o) : v_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool isBool() const { return std::holds_alternative<bool>(v_); }
  bool isNumber() const { return std::holds_alternative<double>(v_); }
  bool isString() const { return std::holds_alternative<std::string>(v_); }
  bool isArray() const { return std::holds_alternative<JsonArray>(v_); }
  bool isObject() const { return std::holds_alternative<JsonObject>(v_); }

  bool asBool() const { return std::get<bool>(v_); }
  double asNumber() const { return std::get<double>(v_); }
  const std::string& asString() const { return std::get<std::string>(v_); }
  const JsonArray& asArray() const { return std::get<JsonArray>(v_); }
  const JsonObject& asObject() const { return std::get<JsonObject>(v_); }

  /// Object member access; throws if absent or not an object.
  const JsonValue& at(const std::string& key) const {
    const JsonObject& obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
      throw std::runtime_error("json: missing key '" + key + "'");
    return it->second;
  }
  bool has(const std::string& key) const {
    return isObject() && asObject().count(key) != 0;
  }

 private:
  Storage v_;
};

/// Parse one JSON document; trailing non-space input is an error.
JsonValue parseJson(const std::string& text);

/// Serialize compactly (no whitespace), object keys in map order, numbers
/// as "%.12g" — deterministic bytes for a given value.
void writeJson(std::ostream& os, const JsonValue& value);
std::string dumpJson(const JsonValue& value);

/// Escape + quote a string the same way the writer does — shared with the
/// obs JSONL exporter so event logs and serve responses agree on bytes.
void writeJsonString(std::ostream& os, const std::string& s);

class JsonParser {
 public:
  /// Deepest array/object nesting accepted.  Parsing (and destroying the
  /// parsed value) recurses once per level, so the cap bounds the stack an
  /// untrusted line can claim; the committed JSON files nest 4 deep.
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what);

  void skipSpace();
  char peek();
  void expect(char c);
  bool consumeWord(const char* word);
  JsonValue parseValue();
  JsonValue parseObject();
  JsonValue parseArray();
  std::string parseString();
  JsonValue parseNumber();

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace mcsim::json
