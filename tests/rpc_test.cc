#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "griddb/rpc/server.h"
#include "griddb/rpc/wire.h"
#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/util/rng.h"

namespace griddb::rpc {
namespace {

// ---------- values & codec ----------

TEST(XmlRpcValueTest, ScalarRoundTrip) {
  for (const XmlRpcValue& original :
       {XmlRpcValue(int64_t{-42}), XmlRpcValue(3.25), XmlRpcValue(true),
        XmlRpcValue(false), XmlRpcValue("hello <world> & 'friends'"),
        XmlRpcValue()}) {
    auto decoded = DecodeResponse(EncodeResponse(original));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == original);
  }
}

TEST(XmlRpcValueTest, NestedArrayAndStruct) {
  XmlRpcStruct inner;
  inner["count"] = int64_t{3};
  inner["ratio"] = 0.5;
  XmlRpcArray array;
  array.emplace_back("first");
  array.emplace_back(std::move(inner));
  XmlRpcValue original((XmlRpcArray(std::move(array))));

  auto decoded = DecodeResponse(EncodeResponse(original));
  ASSERT_TRUE(decoded.ok());
  const XmlRpcArray* items = decoded->AsArray().value();
  ASSERT_EQ(items->size(), 2u);
  EXPECT_EQ((*items)[0].AsString().value(), "first");
  EXPECT_EQ((*items)[1].Member("count").value()->AsInt().value(), 3);
}

TEST(XmlRpcValueTest, TypeAccessorsEnforce) {
  XmlRpcValue v(int64_t{1});
  EXPECT_TRUE(v.AsInt().ok());
  EXPECT_TRUE(v.AsDouble().ok());  // int widens
  EXPECT_FALSE(v.AsString().ok());
  EXPECT_FALSE(v.AsArray().ok());
  EXPECT_FALSE(XmlRpcValue(2.5).AsInt().ok());
}

TEST(XmlRpcValueTest, RequestCodecRoundTrip) {
  RpcRequest request;
  request.method = "dataaccess.query";
  request.session_token = "sess-1-admin";
  request.params.emplace_back("SELECT * FROM events");
  request.params.emplace_back(int64_t{10});

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->method, "dataaccess.query");
  EXPECT_EQ(decoded->session_token, "sess-1-admin");
  ASSERT_EQ(decoded->params.size(), 2u);
  EXPECT_EQ(decoded->params[0].AsString().value(), "SELECT * FROM events");
}

TEST(XmlRpcValueTest, ResponseCodecSuccessAndFault) {
  auto ok = DecodeResponse(EncodeResponse(XmlRpcValue(int64_t{7})));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->AsInt().value(), 7);

  auto fault = DecodeResponse(EncodeFault(NotFound("no such table")));
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.status().code(), StatusCode::kNotFound);
  EXPECT_NE(fault.status().message().find("no such table"), std::string::npos);
}

TEST(XmlRpcValueTest, ResultSetRoundTrip) {
  storage::ResultSet rs;
  rs.columns = {"id", "energy", "tag", "flag"};
  rs.rows = {{storage::Value(int64_t{1}), storage::Value(12.5),
              storage::Value("muon"), storage::Value(true)},
             {storage::Value(int64_t{2}), storage::Value::Null(),
              storage::Value::Null(), storage::Value(false)}};
  auto round = RpcToResultSet(ResultSetToRpc(rs));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->columns, rs.columns);
  ASSERT_EQ(round->rows.size(), 2u);
  EXPECT_EQ(round->rows[0][2].AsStringStrict(), "muon");
  EXPECT_TRUE(round->rows[1][1].is_null());
}

// ---------- pull decoder ----------

/// Same wire value: the canonical encodings match (this tells -0 from +0
/// and compares NaNs by sign) and, NaN aside, the values compare equal.
void ExpectSameValue(const XmlRpcValue& got, const XmlRpcValue& want) {
  EXPECT_EQ(EncodeResponse(got), EncodeResponse(want));
  if (EncodeResponse(want).find("nan") == std::string::npos) {
    EXPECT_TRUE(got == want);
  }
}

double RandomDouble(Rng& rng) {
  static const double kSpecial[] = {
      0.0, -0.0, 1.0, -1.5, 0.1, 1e300, -1e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  switch (rng.UniformInt(0, 2)) {
    case 0: return kSpecial[rng.UniformInt(0, std::size(kSpecial) - 1)];
    case 1: return rng.Gaussian(0, 1e6);
    default: {
      const uint64_t bits = rng.Next();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return d;  // any bit pattern: subnormals, NaN payloads, ...
    }
  }
}

/// Strings that stress the text wire: markup characters, entity-like
/// text, leading / trailing / whitespace-only runs and raw high bytes.
std::string RandomText(Rng& rng) {
  static const char* kPieces[] = {
      " ", "  ", "\t", "\n", "\r\n", "&", "&amp;", "<", ">", "\"", "'",
      "]]>", "<!--", "a", "SELECT 1", "\xc3\xa9", "&#65;", "value"};
  std::string out;
  const int64_t n = rng.UniformInt(0, 6);
  for (int64_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.2) {
      out.push_back(static_cast<char>(rng.UniformInt(1, 255)));
    } else {
      out += kPieces[rng.UniformInt(0, std::size(kPieces) - 1)];
    }
  }
  return out;
}

XmlRpcValue RandomValue(Rng& rng, int depth) {
  const int64_t kind = rng.UniformInt(0, depth > 0 ? 7 : 5);
  switch (kind) {
    case 0: return XmlRpcValue();
    case 1: {
      static const int64_t kInts[] = {0, -1, INT64_MIN, INT64_MAX};
      return rng.NextDouble() < 0.3 ? XmlRpcValue(kInts[rng.UniformInt(0, 3)])
                                    : XmlRpcValue(rng.UniformInt(-1e9, 1e9));
    }
    case 2: return XmlRpcValue(RandomDouble(rng));
    case 3: return XmlRpcValue(rng.NextDouble() < 0.5);
    case 4:
    case 5: return XmlRpcValue(RandomText(rng));
    case 6: {
      XmlRpcArray items;
      for (int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return XmlRpcValue(std::move(items));
    }
    default: {
      XmlRpcStruct record;
      for (int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
        record[RandomText(rng)] = RandomValue(rng, depth - 1);
      }
      return XmlRpcValue(std::move(record));
    }
  }
}

TEST(XmlRpcPullDecoderTest, RandomizedResponseAndRequestRoundTrip) {
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const XmlRpcValue value = RandomValue(rng, 4);
    auto decoded = DecodeResponse(EncodeResponse(value));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameValue(*decoded, value);

    RpcRequest request;
    request.method = "m" + RandomText(rng);
    request.session_token = RandomText(rng);
    request.tenant = RandomText(rng);
    request.wire_accept = RandomText(rng);
    if (trial % 2 == 0) {
      request.trace_id = rng.Next() | 1;
      request.parent_span_id = rng.Next();
    }
    if (trial % 3 == 0) request.deadline_ms = std::fabs(RandomDouble(rng));
    for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
      request.params.push_back(RandomValue(rng, 3));
    }
    auto back = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->method, request.method);
    EXPECT_EQ(back->session_token, request.session_token);
    EXPECT_EQ(back->tenant, request.tenant);
    EXPECT_EQ(back->wire_accept, request.wire_accept);
    EXPECT_EQ(back->trace_id, request.trace_id);
    EXPECT_EQ(back->parent_span_id, request.parent_span_id);
    // Only a positive budget is sent (a NaN one is not).
    EXPECT_EQ(back->deadline_ms,
              request.deadline_ms > 0 ? request.deadline_ms : 0.0);
    ASSERT_EQ(back->params.size(), request.params.size());
    for (size_t i = 0; i < request.params.size(); ++i) {
      ExpectSameValue(back->params[i], request.params[i]);
    }
  }
}

TEST(XmlRpcPullDecoderTest, HandWrittenFixturesDecode) {
  // <int> alias, declaration, comments, pretty-printing, character
  // references, CDATA, bare and self-closing values.
  const char* kPretty = R"(<?xml version="1.0" encoding="UTF-8"?>
<!-- produced by hand -->
<methodResponse>
  <params>
    <param>
      <value>
        <struct>
          <member>
            <name>count</name>
            <value><int> 42 </int></value>
          </member>
          <member>
            <name>ratio</name>
            <value><double>
              -1.5e3
            </double></value>
          </member>
          <member><name>flag</name><value><boolean>1</boolean></value></member>
          <member><name>refs</name><value><string>&#65;&#x42;&lt;&amp;</string></value></member>
          <member><name>bare</name><value>plain text</value></member>
          <member><name>empty</name><value/></member>
          <member><name>cdata</name><value><string><![CDATA[a < b]]> &amp; c</string></value></member>
          <member>
            <name>list</name>
            <value><array><data>
              <value><i4>+7</i4></value>
              <!-- a comment between values -->
              <value><nil/></value>
              <value><string/></value>
            </data></array></value>
          </member>
        </struct>
      </value>
    </param>
  </params>
</methodResponse>
)";
  auto decoded = DecodeResponse(kPretty);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Member("count").value()->AsInt().value(), 42);
  EXPECT_EQ(decoded->Member("ratio").value()->AsDouble().value(), -1500.0);
  EXPECT_TRUE(decoded->Member("flag").value()->AsBool().value());
  EXPECT_EQ(decoded->Member("refs").value()->AsString().value(), "AB<&");
  EXPECT_EQ(decoded->Member("bare").value()->AsString().value(), "plain text");
  EXPECT_EQ(decoded->Member("empty").value()->AsString().value(), "");
  EXPECT_EQ(decoded->Member("cdata").value()->AsString().value(), "a < b & c");
  const XmlRpcArray* list =
      decoded->Member("list").value()->AsArray().value();
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].AsInt().value(), 7);
  EXPECT_TRUE((*list)[1].is_empty());
  EXPECT_EQ((*list)[2].AsString().value(), "");

  // Attributes are checked for syntax and ignored.
  auto attributed = DecodeResponse(
      "<methodResponse xmlns:ex='urn:x'><params><param>"
      "<value ex:note=\"a &amp; b\"><i4>5</i4></value>"
      "</param></params></methodResponse>");
  ASSERT_TRUE(attributed.ok()) << attributed.status().ToString();
  EXPECT_EQ(attributed->AsInt().value(), 5);

  auto request = DecodeRequest(
      "<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>system.login"
      "</methodName>\n  <futureHeader>ignored</futureHeader>\n  <params>\n"
      "    <param><value><string>admin</string></value></param>\n"
      "    <param><value>secret</value></param>\n  </params>\n"
      "</methodCall>\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, "system.login");
  ASSERT_EQ(request->params.size(), 2u);
  EXPECT_EQ(request->params[1].AsString().value(), "secret");
}

TEST(XmlRpcPullDecoderTest, MalformedMessagesAreParseErrors) {
  for (const char* bad : {
           "",
           "   ",
           "<methodResponse>",
           "<methodResponse><params><param><value><i4>1</i4></value></param>"
           "</params></methodResponse><extra/>",
           "<methodResponse><params><param><value><i4>1</string></value>"
           "</param></params></methodResponse>",
           "<methodResponse><params><param><value><i4>1.5</i4></value>"
           "</param></params></methodResponse>",
           "<methodResponse><params><param><value><double>1e999</double>"
           "</value></param></params></methodResponse>",
           "<methodResponse><params><param><value><boolean>yes</boolean>"
           "</value></param></params></methodResponse>",
           "<methodResponse><params><param><value>text<i4>1</i4></value>"
           "</param></params></methodResponse>",
           "<methodResponse><params><param><value><i4>1</i4><i4>2</i4>"
           "</value></param></params></methodResponse>",
           "<methodResponse><params><param><value><string>&bogus;</string>"
           "</value></param></params></methodResponse>",
           "<methodResponse><params><param><value><date>x</date></value>"
           "</param></params></methodResponse>",
           "<methodResponse>junk<params/></methodResponse>",
           "<methodCall><methodName>x</methodName><traceContext>zz"
           "</traceContext></methodCall>",
           "<methodCall><methodName>x</methodName><deadlineMs>-1"
           "</deadlineMs></methodCall>",
           "<methodResponse a=><params/></methodResponse>",
           "<methodResponse><!-- unterminated",
           "<!DOCTYPE x [<!ENTITY a \"b\">]><methodResponse><params><param>"
           "<value>&a;</value></param></params></methodResponse>",
           "<methodResponse><params><param><value><![CDATA[x</value>",
       }) {
    auto response = DecodeResponse(bad);
    auto request = DecodeRequest(bad);
    EXPECT_FALSE(response.ok()) << bad;
    EXPECT_FALSE(request.ok()) << bad;
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(), StatusCode::kParseError) << bad;
    }
  }
}

TEST(XmlRpcPullDecoderTest, TruncationAtEveryByteFailsCleanly) {
  storage::ResultSet rs;
  rs.columns = {"id", "energy", "tag"};
  for (int r = 0; r < 6; ++r) {
    rs.rows.push_back({storage::Value(int64_t{r}), storage::Value(r * 0.25),
                       storage::Value("a&b <" + std::to_string(r) + ">")});
  }
  XmlRpcStruct envelope;
  envelope["result"] = ResultSetToRpc(rs);
  envelope["rows"] = int64_t{6};
  const std::string response = EncodeResponse(XmlRpcValue(envelope));
  ASSERT_TRUE(DecodeResponse(response).ok());
  for (size_t n = 0; n < response.size(); ++n) {
    EXPECT_FALSE(DecodeResponse(std::string_view(response).substr(0, n)).ok())
        << "prefix of " << n << " bytes decoded";
  }

  RpcRequest request;
  request.method = "dataaccess.query";
  request.trace_id = 0xabc;
  request.parent_span_id = 0x12;
  request.deadline_ms = 250.5;
  request.params.emplace_back(" SELECT 1 ");
  const std::string raw = EncodeRequest(request);
  ASSERT_TRUE(DecodeRequest(raw).ok());
  for (size_t n = 0; n < raw.size(); ++n) {
    EXPECT_FALSE(DecodeRequest(std::string_view(raw).substr(0, n)).ok())
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(XmlRpcPullDecoderTest, DeepNestingIsRejectedNotACrash) {
  // A client-supplied request nesting 100,000 arrays must not overflow the
  // server's stack: the reader stops at xml::kMaxDepth.
  constexpr int kLevels = 100000;
  std::string nested;
  nested.reserve(kLevels * 40);
  for (int i = 0; i < kLevels; ++i) nested += "<value><array><data>";
  for (int i = 0; i < kLevels; ++i) nested += "</data></array></value>";
  auto response = DecodeResponse("<methodResponse><params><param>" + nested +
                                 "</param></params></methodResponse>");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kParseError);
  EXPECT_NE(response.status().message().find("too deep"), std::string::npos)
      << response.status().ToString();
  auto request = DecodeRequest("<methodCall><methodName>m</methodName>"
                               "<params><param>" +
                               nested + "</param></params></methodCall>");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError);

  // Nesting the encoder produces for real data stays well inside the cap.
  XmlRpcValue deep(int64_t{1});
  for (int i = 0; i < 100; ++i) deep = XmlRpcValue(XmlRpcArray{deep});
  auto ok = DecodeResponse(EncodeResponse(deep));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok == deep);
}

TEST(XmlRpcPullDecoderTest, WhitespaceIsVerbatimOnTheTextWire) {
  // Strings, struct keys and request params must arrive exactly as
  // sent on the text wire, as they do on the binary wire.
  const std::vector<std::string> kTexts = {"  padded  ", "\ttab", "trail\n",
                                           " ", "\r\n", " SELECT 1 ", ""};
  for (const std::string& text : kTexts) {
    storage::ResultSet rs;
    rs.columns = {text.empty() ? "c" : text};
    rs.rows = {{storage::Value(text)}};
    XmlRpcStruct record;
    record[text] = XmlRpcValue(text);
    record["result"] = ResultSetToRpc(rs);
    const XmlRpcValue value(std::move(record));

    auto xml_back = DecodeResponse(EncodeResponse(value));
    ASSERT_TRUE(xml_back.ok()) << xml_back.status().ToString();
    EXPECT_EQ(xml_back->Member(text).value()->AsString().value(), text);
    auto xml_rs = RpcToResultSet(*xml_back->Member("result").value());
    ASSERT_TRUE(xml_rs.ok());
    EXPECT_EQ(xml_rs->columns, rs.columns);
    EXPECT_EQ(xml_rs->rows, rs.rows);

    std::string binary;
    wire::EncodeValue(value, &binary);
    size_t offset = 0;
    auto bin_back = wire::DecodeValue(binary, &offset);
    ASSERT_TRUE(bin_back.ok()) << bin_back.status().ToString();
    EXPECT_TRUE(*bin_back == *xml_back) << "codecs disagree on '" << text
                                        << "'";

    RpcRequest request;
    request.method = "dataaccess.query";
    request.params.emplace_back(text);
    auto back = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->params.at(0).AsString().value(), text);
  }
}

// ---------- URL ----------

TEST(UrlTest, ParseForms) {
  auto url = Url::Parse("clarens://cern-tier1:8443/clarens/service");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme, "clarens");
  EXPECT_EQ(url->host, "cern-tier1");
  EXPECT_EQ(url->port, 8443);
  EXPECT_EQ(url->path, "/clarens/service");

  auto defaults = Url::Parse("http://host");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->port, 8080);
  EXPECT_EQ(defaults->path, "/");

  EXPECT_FALSE(Url::Parse("no-scheme").ok());
  EXPECT_FALSE(Url::Parse("http://").ok());
  EXPECT_FALSE(Url::Parse("http://host:notaport/x").ok());
}

// ---------- server/client ----------

struct RpcFixture : public ::testing::Test {
  RpcFixture()
      : transport(&network, net::ServiceCosts::Default()),
        server("clarens://server-host:8080/clarens", &transport) {
    network.AddHost("server-host");
    network.AddHost("client-host");
    (void)server.RegisterMethod(
        "math.add",
        [](const XmlRpcArray& params, CallContext& ctx) -> Result<XmlRpcValue> {
          ctx.cost.AddMs(1.0);
          int64_t total = 0;
          for (const XmlRpcValue& p : params) {
            GRIDDB_ASSIGN_OR_RETURN(int64_t v, p.AsInt());
            total += v;
          }
          return XmlRpcValue(total);
        });
    (void)server.RegisterMethod(
        "who.am.i",
        [](const XmlRpcArray&, CallContext& ctx) -> Result<XmlRpcValue> {
          return XmlRpcValue(ctx.authenticated_user);
        });
  }

  net::Network network;
  Transport transport;
  RpcServer server;
};

TEST_F(RpcFixture, BasicCall) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  XmlRpcArray params;
  params.emplace_back(int64_t{2});
  params.emplace_back(int64_t{3});
  auto result = client.Call("math.add", std::move(params), nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->AsInt().value(), 5);
}

TEST_F(RpcFixture, UnknownMethodFaults) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  auto result = client.Call("no.such.method", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcFixture, UnresolvedEndpointIsUnavailable) {
  RpcClient client(&transport, "client-host", "clarens://ghost:8080/x");
  auto result = client.Call("math.add", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(RpcFixture, ConnectCostChargedOncePerConnection) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  net::Cost first, second;
  ASSERT_TRUE(client.Call("math.add", {}, &first).ok());
  ASSERT_TRUE(client.Call("math.add", {}, &second).ok());
  const double connect = transport.costs().connect_auth_ms;
  EXPECT_GT(first.total_ms(), connect);
  EXPECT_LT(second.total_ms(), connect);  // connection reused
  EXPECT_GT(second.total_ms(), 0.0);      // still pays transfer + handler
}

TEST_F(RpcFixture, ServerSideCostFlowsToCaller) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  ASSERT_TRUE(client.Connect(nullptr).ok());
  net::Cost cost;
  ASSERT_TRUE(client.Call("math.add", {}, &cost).ok());
  // handler adds 1.0, server parse adds query_parse_ms.
  EXPECT_GE(cost.total_ms(), 1.0 + transport.costs().query_parse_ms);
}

TEST_F(RpcFixture, AuthRequiredRejectsAnonymous) {
  server.AddUser("cms", "secret");
  RpcClient anonymous(&transport, "client-host",
                      "clarens://server-host:8080/clarens");
  auto result = anonymous.Call("math.add", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RpcFixture, AuthSucceedsWithCredentials) {
  server.AddUser("cms", "secret");
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens", "cms", "secret");
  auto result = client.Call("who.am.i", {}, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->AsString().value(), "cms");
}

TEST_F(RpcFixture, WrongPasswordRejected) {
  server.AddUser("cms", "secret");
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens", "cms", "wrong");
  auto result = client.Call("who.am.i", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RpcFixture, SystemListMethods) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  auto result = client.Call("system.listMethods", {}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->AsArray().value()->size(), 2u);
}

TEST_F(RpcFixture, DuplicateMethodRegistrationFails) {
  Status dup = server.RegisterMethod(
      "math.add", [](const XmlRpcArray&, CallContext&) -> Result<XmlRpcValue> {
        return XmlRpcValue();
      });
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST_F(RpcFixture, DuplicateBindRejected) {
  net::Cost cost;
  // Binding a second server at the same URL logs and leaves the first.
  RpcServer other("clarens://server-host:8080/clarens", &transport);
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  auto result = client.Call("math.add", {}, &cost);
  EXPECT_TRUE(result.ok());  // original server still serves
}

TEST_F(RpcFixture, LargerPayloadCostsMore) {
  RpcClient client(&transport, "client-host",
                   "clarens://server-host:8080/clarens");
  ASSERT_TRUE(client.Connect(nullptr).ok());
  net::Cost small, large;
  XmlRpcArray one;
  one.emplace_back(int64_t{1});
  ASSERT_TRUE(client.Call("math.add", std::move(one), &small).ok());
  XmlRpcArray many;
  for (int i = 0; i < 500; ++i) many.emplace_back(int64_t{i});
  ASSERT_TRUE(client.Call("math.add", std::move(many), &large).ok());
  EXPECT_GT(large.total_ms(), small.total_ms());
}

}  // namespace
}  // namespace griddb::rpc
