#include "mcsim/util/xml.hpp"

#include <gtest/gtest.h>

namespace mcsim::xml {
namespace {

TEST(Xml, MinimalElement) {
  const auto root = parse("<a/>");
  EXPECT_EQ(root->name, "a");
  EXPECT_TRUE(root->children.empty());
  EXPECT_TRUE(root->attributes.empty());
}

TEST(Xml, AttributesBothQuoteStyles) {
  const auto root = parse(R"(<job id="J1" name='mProject'/>)");
  EXPECT_EQ(root->attr("id"), "J1");
  EXPECT_EQ(root->attr("name"), "mProject");
  EXPECT_EQ(root->attr("missing", "dflt"), "dflt");
  EXPECT_TRUE(root->hasAttr("id"));
  EXPECT_FALSE(root->hasAttr("missing"));
}

TEST(Xml, RequiredAttrThrowsWhenAbsent) {
  const auto root = parse("<a b=\"1\"/>");
  EXPECT_EQ(root->requiredAttr("b"), "1");
  EXPECT_THROW(root->requiredAttr("c"), std::out_of_range);
}

TEST(Xml, NestedChildrenAndText) {
  const auto root = parse("<r><x>hello</x><y/><x>world</x></r>");
  ASSERT_EQ(root->children.size(), 3u);
  const auto xs = root->childrenNamed("x");
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0]->text, "hello");
  EXPECT_EQ(xs[1]->text, "world");
  EXPECT_NE(root->firstChild("y"), nullptr);
  EXPECT_EQ(root->firstChild("z"), nullptr);
}

TEST(Xml, EntityDecoding) {
  const auto root = parse("<a t=\"&lt;&gt;&amp;&apos;&quot;\">&amp;&lt;</a>");
  EXPECT_EQ(root->attr("t"), "<>&'\"");
  EXPECT_EQ(root->text, "&<");
}

TEST(Xml, NumericCharacterReferences) {
  const auto root = parse("<a>&#65;&#x42;</a>");
  EXPECT_EQ(root->text, "AB");
}

TEST(Xml, NumericReferenceUtf8Encoding) {
  const auto root = parse("<a>&#233;</a>");  // e-acute, U+00E9
  EXPECT_EQ(root->text, "\xC3\xA9");
}

TEST(Xml, DeclarationCommentsDoctypeSkipped) {
  const auto root = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE adag>\n"
      "<!-- generated by mDAG -->\n"
      "<adag><!-- inner --><job/></adag>\n"
      "<!-- trailing -->");
  EXPECT_EQ(root->name, "adag");
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0]->name, "job");
}

TEST(Xml, WhitespaceInTagsTolerated) {
  const auto root = parse("<a  b = \"1\"   ></a >");
  EXPECT_EQ(root->attr("b"), "1");
}

TEST(Xml, MismatchedClosingTagRejected) {
  EXPECT_THROW(parse("<a><b></a></b>"), ParseError);
}

TEST(Xml, UnterminatedElementRejected) {
  EXPECT_THROW(parse("<a><b/>"), ParseError);
}

TEST(Xml, DuplicateAttributeRejected) {
  EXPECT_THROW(parse("<a x=\"1\" x=\"2\"/>"), ParseError);
}

TEST(Xml, TrailingContentRejected) {
  EXPECT_THROW(parse("<a/><b/>"), ParseError);
}

TEST(Xml, UnknownEntityRejected) {
  EXPECT_THROW(parse("<a>&bogus;</a>"), ParseError);
}

TEST(Xml, AngleBracketInAttributeRejected) {
  EXPECT_THROW(parse("<a x=\"<\"/>"), ParseError);
}

TEST(Xml, ParseErrorCarriesOffset) {
  try {
    parse("<a>&bogus;</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Xml, EscapeRoundTrip) {
  const std::string nasty = "<tag> & 'quotes' \"double\"";
  const auto root = parse("<a t=\"" + escape(nasty) + "\">" + escape(nasty) + "</a>");
  EXPECT_EQ(root->attr("t"), nasty);
  EXPECT_EQ(root->text, nasty);
}

TEST(Xml, DeeplyNested) {
  std::string doc;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) doc += "<n>";
  for (int i = 0; i < depth; ++i) doc += "</n>";
  const auto root = parse(doc);
  const Element* cursor = root.get();
  int seen = 1;
  while (!cursor->children.empty()) {
    cursor = cursor->children[0].get();
    ++seen;
  }
  EXPECT_EQ(seen, depth);
}

TEST(Xml, NestingPastTheCapIsATypedError) {
  auto nested = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
    for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  const std::size_t cap = static_cast<std::size_t>(kMaxDepth);
  EXPECT_NO_THROW(parse(nested(cap)));
  // 100 000 levels used to overflow the stack in the recursive parser.
  for (std::size_t depth : {cap + 1, std::size_t{100000}}) {
    try {
      parse(nested(depth));
      FAIL() << "expected ParseError at depth " << depth;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.offset(), 3 * cap);  // the first '<' past the cap
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace mcsim::xml
