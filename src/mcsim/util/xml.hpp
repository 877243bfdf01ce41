// Minimal XML document parser for DAX workflow descriptions.
//
// The paper's workflows "are in XML format" produced by Montage's mDAG, and
// the authors "wrote a program for parsing the workflow description and
// creating an adjacency list representation of the graph" (§5).  This is
// that program's equivalent.  It supports the subset of XML that DAX files
// use: elements, attributes (single- or double-quoted), character data,
// comments, processing instructions/XML declarations, and the five
// predefined entities.  No namespaces-awareness (prefixes are kept verbatim
// in names), no DTDs, no CDATA.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcsim::xml {

/// Parse failure; `what()` includes a byte offset and a short reason.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& reason, std::size_t offset);
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// An element node.  Children are owned; text content is the concatenation
/// of character data directly inside this element (whitespace preserved,
/// entities decoded).
struct Element {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<std::unique_ptr<Element>> children;
  std::string text;

  /// Attribute value or `fallback` if absent.
  const std::string& attr(const std::string& key,
                          const std::string& fallback = kEmpty) const;
  /// Attribute value; throws std::out_of_range if absent.
  const std::string& requiredAttr(const std::string& key) const;
  bool hasAttr(const std::string& key) const;

  /// All direct children with the given element name.
  std::vector<const Element*> childrenNamed(std::string_view name) const;
  /// First direct child with the given name, or nullptr.
  const Element* firstChild(std::string_view name) const;

 private:
  static const std::string kEmpty;
};

/// Deepest element nesting parse() accepts.  Parsing and destroying an
/// Element tree both recurse once per level, so the cap bounds the stack a
/// hostile document can claim; DAX files nest 3 deep.
inline constexpr int kMaxDepth = 256;

/// Parse a complete document and return its root element.
/// Throws ParseError on malformed input, including nesting deeper than
/// kMaxDepth.
std::unique_ptr<Element> parse(std::string_view input);

/// Escape text for use as XML character data or an attribute value.
std::string escape(std::string_view text);

}  // namespace mcsim::xml
