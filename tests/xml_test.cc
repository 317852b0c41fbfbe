#include <gtest/gtest.h>

#include "griddb/xml/xml.h"

namespace griddb::xml {
namespace {

TEST(XmlParseTest, SimpleElement) {
  auto doc = Parse("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ((*doc)->name, "root");
  EXPECT_TRUE((*doc)->children.empty());
}

TEST(XmlParseTest, TextContent) {
  auto doc = Parse("<greeting>hello world</greeting>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text, "hello world");
}

TEST(XmlParseTest, Attributes) {
  auto doc = Parse(R"(<db name="cern_tier1" vendor='oracle'/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Attribute("name"), "cern_tier1");
  EXPECT_EQ((*doc)->Attribute("vendor"), "oracle");
  EXPECT_TRUE((*doc)->HasAttribute("name"));
  EXPECT_FALSE((*doc)->HasAttribute("missing"));
  EXPECT_EQ((*doc)->Attribute("missing"), "");
}

TEST(XmlParseTest, NestedChildren) {
  auto doc = Parse(
      "<database><table name=\"t1\"/><table name=\"t2\"/>"
      "<owner>cms</owner></database>");
  ASSERT_TRUE(doc.ok());
  const Node& root = **doc;
  EXPECT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.Children("table").size(), 2u);
  EXPECT_EQ(root.ChildText("owner"), "cms");
  EXPECT_EQ(root.ChildText("absent", "dflt"), "dflt");
  ASSERT_NE(root.Child("table"), nullptr);
  EXPECT_EQ(root.Child("table")->Attribute("name"), "t1");
  EXPECT_EQ(root.Child("nope"), nullptr);
}

TEST(XmlParseTest, DeclarationAndComments) {
  auto doc = Parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- prolog comment -->\n"
      "<root><!-- inner --><x>1</x></root>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->ChildText("x"), "1");
}

TEST(XmlParseTest, EntityDecoding) {
  auto doc = Parse("<v a=\"&lt;&gt;&amp;&quot;&apos;\">&lt;tag&gt;</v>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Attribute("a"), "<>&\"'");
  EXPECT_EQ((*doc)->text, "<tag>");
}

TEST(XmlParseTest, NumericCharacterReferences) {
  auto doc = Parse("<v>&#65;&#x42;</v>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text, "AB");
}

TEST(XmlParseTest, Cdata) {
  auto doc = Parse("<q><![CDATA[a < b && c]]></q>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text, "a < b && c");
}

TEST(XmlParseTest, RejectsMismatchedTags) {
  EXPECT_FALSE(Parse("<a><b></a></b>").ok());
}

TEST(XmlParseTest, RejectsUnterminated) {
  EXPECT_FALSE(Parse("<a>").ok());
  EXPECT_FALSE(Parse("<a attr=>").ok());
  EXPECT_FALSE(Parse("<a attr=\"x>").ok());
}

TEST(XmlParseTest, RejectsTrailingContent) {
  EXPECT_FALSE(Parse("<a/><b/>").ok());
}

TEST(XmlParseTest, RejectsUnknownEntity) {
  EXPECT_FALSE(Parse("<a>&nbsp;</a>").ok());
}

TEST(XmlParseTest, ErrorsCarryLineNumbers) {
  auto result = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
}

TEST(XmlWriteTest, RoundTrip) {
  Node root("upperXSpec");
  root.attributes["version"] = "1.0";
  Node& db = root.AddChild("database");
  db.attributes["name"] = "tier2_mysql";
  db.attributes["driver"] = "mysql";
  db.AddTextChild("url", "mysql://caltech/marts?user=cms");
  root.AddTextChild("note", "a < b & c");

  std::string text = Write(root);
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Node& copy = **parsed;
  EXPECT_EQ(copy.name, "upperXSpec");
  EXPECT_EQ(copy.Attribute("version"), "1.0");
  ASSERT_NE(copy.Child("database"), nullptr);
  EXPECT_EQ(copy.Child("database")->ChildText("url"),
            "mysql://caltech/marts?user=cms");
  EXPECT_EQ(copy.ChildText("note"), "a < b & c");
}

TEST(XmlWriteTest, EscapesSpecials) {
  EXPECT_EQ(Escape("<a b=\"c\">&'"), "&lt;a b=&quot;c&quot;&gt;&amp;&apos;");
}

TEST(XmlWriteTest, CompactMode) {
  Node root("r");
  root.AddTextChild("x", "1");
  WriteOptions options;
  options.pretty = false;
  options.declaration = false;
  EXPECT_EQ(Write(root, options), "<r><x>1</x></r>");
}

TEST(XmlNodeTest, CloneIsDeep) {
  Node root("a");
  root.AddTextChild("b", "1");
  auto copy = root.Clone();
  root.children[0]->text = "2";
  EXPECT_EQ(copy->ChildText("b"), "1");
}

TEST(XmlParseTest, NestingIsCappedNotACrash) {
  auto nest = [](int levels) {
    std::string doc;
    for (int i = 0; i < levels; ++i) doc += "<n>";
    for (int i = 0; i < levels; ++i) doc += "</n>";
    return doc;
  };
  EXPECT_TRUE(Parse(nest(kMaxDepth)).ok());
  auto too_deep = Parse(nest(kMaxDepth + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kParseError);
  auto hostile = Parse(nest(100000));
  ASSERT_FALSE(hostile.ok());
  EXPECT_NE(hostile.status().message().find("nest deeper"), std::string::npos)
      << hostile.status().ToString();
}

TEST(XmlParseTest, BadCharacterReferencesRejected) {
  for (const char* bad : {"<v>&#;</v>", "<v>&#x;</v>", "<v>&#x41zz;</v>",
                          "<v>&#0;</v>", "<v>&#x110000;</v>", "<v>&amp</v>"}) {
    EXPECT_FALSE(Parse(bad).ok()) << bad;
  }
  std::string out;
  ASSERT_TRUE(AppendUnescaped("&#xE9;&#8364;&#x1F600;", &out).ok());
  EXPECT_EQ(out, "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(XmlParseTest, WhitespaceOnlyTextIsTrimmed) {
  auto doc = Parse("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text, "");
}

}  // namespace
}  // namespace griddb::xml
