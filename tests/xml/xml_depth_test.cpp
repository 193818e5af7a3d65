#include <gtest/gtest.h>

#include "xml/xml.hpp"

namespace decos::xml {
namespace {

TEST(XmlDepthTest, ModeratelyDeepNestingParses) {
  constexpr int kDepth = 64;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "<n" + std::to_string(i) + ">";
  text += "leaf";
  for (int i = kDepth - 1; i >= 0; --i) text += "</n" + std::to_string(i) + ">";

  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  const Element* e = doc.value().root.get();
  for (int i = 1; i < kDepth; ++i) {
    ASSERT_EQ(e->children().size(), 1u);
    e = e->children()[0].get();
  }
  EXPECT_EQ(e->text(), "leaf");

  // And the writer round-trips the whole chain.
  auto again = parse(write(*doc.value().root));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().root->name(), "n0");
}

TEST(XmlDepthTest, WideDocumentsParse) {
  std::string text = "<root>";
  for (int i = 0; i < 2000; ++i) text += "<c i=\"" + std::to_string(i) + "\"/>";
  text += "</root>";
  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root->children().size(), 2000u);
  EXPECT_EQ(doc.value().root->children()[1999]->attribute("i"), "1999");
}

std::string nested(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "<a>";
  for (int i = 0; i < depth; ++i) text += "</a>";
  return text;
}

TEST(XmlDepthTest, AcceptsNestingAtTheLimit) {
  auto doc = parse(nested(kMaxDepth));
  ASSERT_TRUE(doc.ok()) << doc.error().message;
}

TEST(XmlDepthTest, RejectsNestingOneBeyondTheLimit) {
  auto doc = parse(nested(kMaxDepth + 1));
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("nested deeper than"), std::string::npos)
      << doc.error().message;
}

TEST(XmlDepthTest, HostileDepthIsAParseErrorNotAStackOverflow) {
  EXPECT_FALSE(parse(nested(200'000)).ok());
}

}  // namespace
}  // namespace decos::xml
