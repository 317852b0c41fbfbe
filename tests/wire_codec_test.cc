// Negotiated binary wire protocol (rpc/wire.h, DESIGN.md §16): codec
// round trips over randomized typed/null/ragged batches, the frame
// digest catching injected corruption (and RetryPolicy recovering),
// the capability handshake falling back to XML-RPC in every
// non-negotiated cell, chunked streaming reassembly, and the guard
// that fault-free XML-RPC responses stay byte-identical to the
// pre-binary tree-writer encoder.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/xmlrpc_tree_writer.h"
#include "griddb/core/jclarens_server.h"
#include "griddb/net/fault.h"
#include "griddb/obs/metrics.h"
#include "griddb/rpc/server.h"
#include "griddb/rpc/wire.h"
#include "griddb/util/rng.h"
#include "griddb/xml/xml.h"

namespace griddb::rpc {
namespace {

using storage::DataType;
using storage::ResultSet;
using storage::Row;
using storage::Value;

// ---------- capability strings ----------

TEST(WireCapsTest, StringRoundTrip) {
  EXPECT_EQ(wire::CapsToString(0), "");
  EXPECT_EQ(wire::CapsToString(wire::kCapBinary), "binary");
  EXPECT_EQ(wire::CapsToString(wire::kAllCaps), "binary,lz4,stream");
  for (uint32_t caps : {0u, uint32_t{wire::kCapBinary},
                        wire::kCapBinary | wire::kCapStream, wire::kAllCaps}) {
    EXPECT_EQ(wire::CapsFromString(wire::CapsToString(caps)), caps);
  }
}

TEST(WireCapsTest, UnknownWordsIgnoredForForwardCompat) {
  EXPECT_EQ(wire::CapsFromString("binary,zstd9,telepathy,stream"),
            wire::kCapBinary | wire::kCapStream);
  // Sub-capabilities mean nothing without the binary framing itself.
  EXPECT_EQ(wire::CapsFromString("lz4,stream"), 0u);
  EXPECT_EQ(wire::CapsFromString("telepathy"), 0u);
  EXPECT_EQ(wire::CapsFromString(""), 0u);
}

TEST(WireCapsTest, EnvToggle) {
  ::unsetenv("GRIDDB_WIRE");
  EXPECT_EQ(wire::EnvWirePreference(), 0u);
  ::setenv("GRIDDB_WIRE", "xmlrpc", 1);
  EXPECT_EQ(wire::EnvWirePreference(), 0u);
  ::setenv("GRIDDB_WIRE", "binary", 1);
  EXPECT_EQ(wire::EnvWirePreference(), wire::kAllCaps);
  ::unsetenv("GRIDDB_WIRE");
}

// ---------- block compression ----------

TEST(BlockCompressTest, RoundTripsCompressibleAndRandomInputs) {
  Rng rng(11);
  std::vector<std::string> inputs;
  inputs.push_back("");
  inputs.push_back("x");
  inputs.push_back(std::string(4096, 'a'));
  std::string repeated;
  for (int i = 0; i < 200; ++i) repeated += "event_id,e_total,pt;";
  inputs.push_back(repeated);
  for (size_t trial = 0; trial < 20; ++trial) {
    std::string random_bytes;
    size_t n = static_cast<size_t>(rng.UniformInt(0, 2000));
    random_bytes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Mix a skewed alphabet (match-friendly) with raw bytes.
      random_bytes.push_back(trial % 2 == 0
                                 ? static_cast<char>(rng.UniformInt(0, 255))
                                 : static_cast<char>('a' + rng.UniformInt(0, 3)));
    }
    inputs.push_back(std::move(random_bytes));
  }

  for (const std::string& in : inputs) {
    std::string packed;
    wire::BlockCompress(in, &packed);
    auto out = wire::BlockDecompress(packed, in.size());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, in);
  }
}

TEST(BlockCompressTest, ShrinksRedundantPayloads) {
  std::string in;
  for (int i = 0; i < 500; ++i) in += "the quick brown fox ";
  std::string packed;
  wire::BlockCompress(in, &packed);
  EXPECT_LT(packed.size(), in.size() / 4);
}

TEST(BlockCompressTest, DamagedInputFailsInsteadOfOverreading) {
  std::string in;
  for (int i = 0; i < 100; ++i) in += "abcdabcdabcd";
  std::string packed;
  wire::BlockCompress(in, &packed);
  ASSERT_FALSE(packed.empty());

  // Truncation, wrong raw_len, and flipped bytes must all fail cleanly.
  auto truncated = wire::BlockDecompress(
      std::string_view(packed).substr(0, packed.size() / 2), in.size());
  EXPECT_FALSE(truncated.ok());
  auto short_raw = wire::BlockDecompress(packed, in.size() - 1);
  EXPECT_FALSE(short_raw.ok());
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::string damaged = packed;
    damaged[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(damaged.size()) - 1))] ^= '\x5a';
    auto out = wire::BlockDecompress(damaged, in.size());
    if (out.ok()) EXPECT_NE(*out, in) << "damage must not masquerade";
    // (Either a clean failure or a different payload; the frame digest
    // above this layer is what guarantees detection end to end.)
  }
}

// ---------- frames ----------

TEST(FrameTest, RoundTripAndDigestCheck) {
  std::string payload;
  for (int i = 0; i < 64; ++i) payload += "columnar payload ";
  std::string raw;
  wire::AppendFrame(wire::FrameKind::kStreamChunk, 3, payload, true, &raw);
  ASSERT_TRUE(wire::LooksBinary(raw));

  auto spans = wire::SplitFrames(raw);
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 1u);
  auto frame = wire::ParseFrame(
      std::string_view(raw).substr((*spans)[0].first, (*spans)[0].second));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->kind, wire::FrameKind::kStreamChunk);
  EXPECT_EQ(frame->seq, 3u);
  EXPECT_TRUE(frame->compressed);  // repetitive payload compresses
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameTest, EveryFlippedByteIsDetected) {
  std::string payload = "short uncompressible \x01\x02\x03 payload";
  std::string raw;
  wire::AppendFrame(wire::FrameKind::kWhole, 0, payload, false, &raw);
  for (size_t pos = 0; pos < raw.size(); ++pos) {
    std::string damaged = raw;
    damaged[pos] ^= '\xa5';
    auto frame = wire::ParseFrame(damaged);
    EXPECT_FALSE(frame.ok()) << "flip at byte " << pos << " undetected";
    if (!frame.ok()) {
      EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(FrameTest, SplitFramesRejectsTruncationAndTrailingGarbage) {
  std::string raw;
  wire::AppendFrame(wire::FrameKind::kWhole, 0, "abc", false, &raw);
  EXPECT_TRUE(wire::SplitFrames(raw).ok());
  EXPECT_FALSE(wire::SplitFrames("").ok());
  EXPECT_FALSE(
      wire::SplitFrames(std::string_view(raw).substr(0, raw.size() - 1)).ok());
  EXPECT_FALSE(wire::SplitFrames(raw + "x").ok());
}

// ---------- TLV value codec ----------

XmlRpcValue TlvRoundTrip(const XmlRpcValue& value) {
  std::string buf;
  wire::EncodeValue(value, &buf);
  size_t offset = 0;
  auto decoded = wire::DecodeValue(buf, &offset);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(offset, buf.size());
  return decoded.ok() ? *decoded : XmlRpcValue();
}

TEST(TlvCodecTest, ScalarsAndNesting) {
  XmlRpcStruct inner;
  inner["count"] = int64_t{-1234567890123};
  inner["ratio"] = 0.125;
  inner["label"] = std::string("nested <xml> & \xc3\xa9 text");
  XmlRpcArray array;
  array.emplace_back(true);
  array.emplace_back(false);
  array.emplace_back();  // nil
  array.emplace_back(std::move(inner));
  XmlRpcValue original((XmlRpcArray(std::move(array))));
  EXPECT_TRUE(TlvRoundTrip(original) == original);
}

TEST(TlvCodecTest, DeepNestingIsCorruptionNotACrash) {
  // 200,000 one-element arrays (tag 6, count 1) around a nil (tag 0):
  // 400 KB that used to recurse the decoder off its stack.
  std::string frame;
  for (int i = 0; i < 200000; ++i) frame += "\x06\x01";
  frame.push_back('\0');
  size_t offset = 0;
  auto decoded = wire::DecodeValue(frame, &offset);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

  XmlRpcValue deep(int64_t{1});
  for (int i = 0; i < 100; ++i) deep = XmlRpcValue(XmlRpcArray{deep});
  EXPECT_TRUE(TlvRoundTrip(deep) == deep);
}

ResultSet RandomResultSet(Rng& rng, bool allow_ragged) {
  ResultSet rs;
  size_t num_cols = static_cast<size_t>(rng.UniformInt(1, 6));
  for (size_t c = 0; c < num_cols; ++c) rs.columns.push_back("c" + std::to_string(c));
  // Per-column value kind: 0 int, 1 double, 2 bool, 3 string, 4 mixed.
  std::vector<int> kinds;
  for (size_t c = 0; c < num_cols; ++c) {
    kinds.push_back(static_cast<int>(rng.UniformInt(0, 4)));
  }
  size_t num_rows = static_cast<size_t>(rng.UniformInt(0, 40));
  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    size_t cells = num_cols;
    if (allow_ragged && rng.NextDouble() < 0.1 && num_cols > 1) {
      cells = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(num_cols)));
    }
    for (size_t c = 0; c < cells; ++c) {
      if (rng.NextDouble() < 0.2) {
        row.push_back(Value::Null());
        continue;
      }
      int kind = kinds[c] == 4 ? static_cast<int>(rng.UniformInt(0, 3)) : kinds[c];
      switch (kind) {
        case 0: row.push_back(Value(rng.UniformInt(-1'000'000, 1'000'000))); break;
        case 1: row.push_back(Value(rng.Gaussian(0, 100))); break;
        case 2: row.push_back(Value(rng.NextDouble() < 0.5)); break;
        default: {
          std::string s;
          size_t n = static_cast<size_t>(rng.UniformInt(0, 24));
          for (size_t i = 0; i < n; ++i) {
            s.push_back(static_cast<char>(rng.UniformInt(1, 255)));
          }
          row.push_back(Value(std::move(s)));
        }
      }
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

TEST(TlvCodecTest, RandomizedResultSetRoundTrips) {
  Rng rng(2005);
  int ragged_trials = 0;
  for (int trial = 0; trial < 60; ++trial) {
    ResultSet rs = RandomResultSet(rng, /*allow_ragged=*/trial % 3 == 0);
    ResultSet expected = rs;
    XmlRpcValue value = ResultSetToRpc(std::move(rs));
    XmlRpcValue decoded = TlvRoundTrip(value);
    auto back = RpcToResultSet(decoded);
    const bool ragged = std::any_of(
        expected.rows.begin(), expected.rows.end(),
        [&](const Row& row) { return row.size() != expected.columns.size(); });
    if (ragged) {
      // The codec carries ragged rows intact; the result decode refuses
      // them.
      ++ragged_trials;
      ASSERT_NE(decoded.result_set(), nullptr) << "trial " << trial;
      EXPECT_EQ(decoded.result_set()->rows, expected.rows) << "trial " << trial;
      EXPECT_EQ(back.status().code(), StatusCode::kTypeError)
          << "trial " << trial;
      continue;
    }
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->columns, expected.columns) << "trial " << trial;
    ASSERT_EQ(back->rows.size(), expected.rows.size()) << "trial " << trial;
    for (size_t r = 0; r < expected.rows.size(); ++r) {
      EXPECT_EQ(back->rows[r], expected.rows[r]) << "trial " << trial
                                                 << " row " << r;
    }
  }
  EXPECT_GT(ragged_trials, 0);
}

TEST(TlvCodecTest, PeersRaggedResultIsRefusedOverBothCodecs) {
  // A peer's result whose rows are narrower or wider than its column list
  // is refused where it is decoded, on the XML struct form and on the
  // binary-decoded native set alike; rectangular ones still pass.
  for (size_t width : {size_t{1}, size_t{3}, size_t{2}}) {
    ResultSet rs;
    rs.columns = {"a", "b"};
    rs.rows = {{Value(int64_t{1}), Value(2.0)}, {}};
    for (size_t c = 0; c < width; ++c) rs.rows[1].push_back(Value("x"));
    const StatusCode want =
        width == rs.columns.size() ? StatusCode::kOk : StatusCode::kTypeError;
    XmlRpcValue value = ResultSetToRpc(ResultSet(rs));

    auto via_xml = DecodeResponse(EncodeResponse(value));
    ASSERT_TRUE(via_xml.ok()) << via_xml.status().ToString();
    ASSERT_EQ(via_xml->result_set(), nullptr) << "XML carries the struct form";
    EXPECT_EQ(RpcToResultSet(*via_xml).status().code(), want) << width;

    XmlRpcValue via_binary = TlvRoundTrip(value);
    ASSERT_NE(via_binary.result_set(), nullptr);
    EXPECT_EQ(RpcToResultSet(via_binary).status().code(), want) << width;
  }
}

TEST(ColumnarBlockTest, RaggedRowsRefuseTheColumnarLayout) {
  ResultSet rs;
  rs.columns = {"a", "b"};
  rs.rows = {{Value(int64_t{1}), Value(2.0)}, {Value(int64_t{3})}};
  std::string buf;
  Status status = wire::EncodeRowsColumnar(rs, 0, rs.rows.size(), &buf);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ColumnarBlockTest, RandomizedRectangularRoundTrips) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    ResultSet rs = RandomResultSet(rng, /*allow_ragged=*/false);
    std::string buf;
    ASSERT_TRUE(wire::EncodeRowsColumnar(rs, 0, rs.rows.size(), &buf).ok());
    size_t offset = 0;
    std::vector<Row> rows;
    ASSERT_TRUE(
        wire::DecodeRowsColumnar(buf, &offset, rs.columns.size(), &rows).ok());
    EXPECT_EQ(offset, buf.size());
    ASSERT_EQ(rows.size(), rs.rows.size()) << "trial " << trial;
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(rows[r], rs.rows[r]) << "trial " << trial << " row " << r;
    }
  }
}

// ---------- framed response codec (whole + streamed) ----------

ResultSet WideResultSet(size_t rows) {
  ResultSet rs;
  rs.columns = {"event_id", "detector", "e_total"};
  for (size_t r = 0; r < rows; ++r) {
    rs.rows.push_back({Value(static_cast<int64_t>(r)),
                       r % 7 == 0 ? Value::Null() : Value("ECAL"),
                       Value(0.5 * static_cast<double>(r))});
  }
  return rs;
}

Result<XmlRpcValue> DecodeFramed(const std::string& raw,
                                 std::vector<Row>* streamed_rows,
                                 size_t* chunks) {
  GRIDDB_ASSIGN_OR_RETURN(auto spans, wire::SplitFrames(raw));
  wire::ResponseDecoder decoder;
  std::vector<Row> rows;
  if (chunks != nullptr) *chunks = 0;
  for (const auto& [offset, length] : spans) {
    GRIDDB_ASSIGN_OR_RETURN(
        wire::Frame frame,
        wire::ParseFrame(std::string_view(raw).substr(offset, length)));
    ResultSet chunk;
    bool is_chunk = false;
    GRIDDB_RETURN_IF_ERROR(decoder.Consume(std::move(frame), &chunk, &is_chunk));
    if (is_chunk) {
      if (chunks != nullptr) ++*chunks;
      rows.insert(rows.end(), std::make_move_iterator(chunk.rows.begin()),
                  std::make_move_iterator(chunk.rows.end()));
    }
  }
  if (!decoder.done()) return Corruption("stream ended without trailer");
  if (streamed_rows != nullptr) *streamed_rows = rows;
  return decoder.Finish(/*attach_rows=*/true, std::move(rows));
}

TEST(BinaryResponseTest, WholeFrameRoundTrip) {
  ResultSet rs = WideResultSet(50);
  ResultSet expected = rs;
  XmlRpcStruct out;
  out["rows"] = static_cast<int64_t>(rs.rows.size());
  out["result"] = ResultSetToRpc(std::move(rs));
  XmlRpcValue value(std::move(out));

  // chunk_rows 1024 > 50 rows: a single kWhole frame.
  std::string raw = wire::EncodeBinaryResponse(value, wire::kAllCaps, 1024, 0);
  size_t chunks = 0;
  auto decoded = DecodeFramed(raw, nullptr, &chunks);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(chunks, 0u);
  auto back = RpcToResultSet(*decoded->Member("result").value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows, expected.rows);
  EXPECT_EQ(decoded->Member("rows").value()->AsInt().value(), 50);
}

TEST(BinaryResponseTest, StreamedChunksReassembleInOrder) {
  ResultSet rs = WideResultSet(237);
  ResultSet expected = rs;
  XmlRpcStruct out;
  out["result"] = ResultSetToRpc(std::move(rs));
  XmlRpcValue value(std::move(out));

  std::string raw = wire::EncodeBinaryResponse(value, wire::kAllCaps, 50, 0);
  std::vector<Row> streamed;
  size_t chunks = 0;
  auto decoded = DecodeFramed(raw, &streamed, &chunks);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(chunks, 5u);  // ceil(237 / 50)
  ASSERT_EQ(streamed.size(), expected.rows.size());
  auto back = RpcToResultSet(*decoded->Member("result").value());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->rows.size(), expected.rows.size());
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    EXPECT_EQ(back->rows[r], expected.rows[r]) << "row " << r;
  }
}

TEST(BinaryResponseTest, WithoutStreamCapEverythingIsOneFrame) {
  ResultSet rs = WideResultSet(237);
  XmlRpcStruct out;
  out["result"] = ResultSetToRpc(std::move(rs));
  XmlRpcValue value(std::move(out));
  std::string raw = wire::EncodeBinaryResponse(
      value, wire::kCapBinary | wire::kCapLz4, 50, 0);
  auto spans = wire::SplitFrames(raw);
  ASSERT_TRUE(spans.ok());
  EXPECT_EQ(spans->size(), 1u);
}

TEST(BinaryResponseTest, TruncatedStreamIsNotDone) {
  ResultSet rs = WideResultSet(237);
  XmlRpcStruct out;
  out["result"] = ResultSetToRpc(std::move(rs));
  std::string raw =
      wire::EncodeBinaryResponse(XmlRpcValue(std::move(out)), wire::kAllCaps,
                                 50, 0);
  auto spans = wire::SplitFrames(raw);
  ASSERT_TRUE(spans.ok());
  ASSERT_GT(spans->size(), 2u);
  wire::ResponseDecoder decoder;
  // Feed everything but the trailer: the decoder must not report done.
  for (size_t i = 0; i + 1 < spans->size(); ++i) {
    auto frame = wire::ParseFrame(
        std::string_view(raw).substr((*spans)[i].first, (*spans)[i].second));
    ASSERT_TRUE(frame.ok());
    ResultSet chunk;
    bool is_chunk = false;
    ASSERT_TRUE(decoder.Consume(std::move(*frame), &chunk, &is_chunk).ok());
  }
  EXPECT_FALSE(decoder.done());
}

TEST(BinaryResponseTest, SharedResultSetEmbeddedTwiceStreamsOnce) {
  // A response struct can embed the SAME ResultSetPtr in two members
  // (sharing is O(1) by design). Only the first occurrence may become
  // the stream stub — a second stub would be rejected by the decoder
  // and make the response permanently undecodable.
  auto rs = std::make_shared<ResultSet>(WideResultSet(237));
  ResultSet expected = *rs;
  XmlRpcStruct out;
  out["result"] = XmlRpcValue(rs);
  out["alias"] = XmlRpcValue(rs);
  XmlRpcValue value(std::move(out));

  std::string raw = wire::EncodeBinaryResponse(value, wire::kAllCaps, 50, 0);
  std::vector<Row> streamed;
  size_t chunks = 0;
  auto decoded = DecodeFramed(raw, &streamed, &chunks);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(chunks, 5u);  // ceil(237 / 50): the set streamed exactly once.
  for (const char* key : {"alias", "result"}) {
    auto member = decoded->Member(key);
    ASSERT_TRUE(member.ok()) << key;
    const storage::ResultSet* back = (*member)->result_set();
    ASSERT_NE(back, nullptr) << key;
    ASSERT_EQ(back->rows.size(), expected.rows.size()) << key;
    EXPECT_EQ(back->rows, expected.rows) << key;
  }
}

TEST(ColumnarBlockTest, HugeRowCountInTinyFrameRejectsBeforeExpanding) {
  // Crafted payloads (past the digest, so this is decode hardening, not
  // transit integrity) declaring 2^28 rows in a handful of bytes must
  // fail on the byte-plausibility bound, not drive ~268M appends.
  auto varint = [](uint64_t v, std::string* out) {
    while (v >= 0x80) {
      out->push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out->push_back(static_cast<char>(v));
  };
  auto header = [&](std::string* out) {
    out->push_back(8);  // kTagResultSet
    varint(1, out);     // one column...
    varint(1, out);
    out->push_back('a');  // ...named "a"
    out->push_back(0);    // columnar layout
    varint(uint64_t{1} << 28, out);  // nrows = kMaxDecodeCount
  };

  // (a) An int64 column with no payload behind the declared row count.
  std::string int_col;
  header(&int_col);
  int_col.push_back(1);  // kColInt64
  varint(0, &int_col);   // null_count = 0
  size_t offset = 0;
  auto decoded = wire::DecodeValue(int_col, &offset);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("row count"), std::string::npos)
      << decoded.status().ToString();

  // (b) An all-null column: one byte regardless of row count, so there
  // is no payload to anchor against — the fixed cell ceiling applies.
  std::string null_col;
  header(&null_col);
  null_col.push_back(0);  // kColAllNull
  offset = 0;
  decoded = wire::DecodeValue(null_col, &offset);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("all-null"), std::string::npos)
      << decoded.status().ToString();

  // A genuinely all-null result set of sane size still round trips.
  ResultSet all_null;
  all_null.columns = {"a", "b"};
  for (int r = 0; r < 100; ++r) {
    all_null.rows.push_back({Value::Null(), Value::Null()});
  }
  ResultSet expected = all_null;
  std::string encoded;
  wire::EncodeValue(ResultSetToRpc(std::move(all_null)), &encoded);
  offset = 0;
  decoded = wire::DecodeValue(encoded, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const storage::ResultSet* back = decoded->result_set();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->rows, expected.rows);
}

// ---------- XML-RPC byte-identity guard ----------

TEST(ByteIdentityTest, FastPathMatchesTreeWriterExactly) {
  // The direct encoders must keep producing exactly what the generic
  // element-tree writer produces (bench/xmlrpc_tree_writer.h), for
  // responses, requests and faults alike.
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    ResultSet rs = RandomResultSet(rng, /*allow_ragged=*/trial % 4 == 0);
    XmlRpcStruct out;
    out["rows"] = static_cast<int64_t>(rs.rows.size());
    out["result"] = ResultSetToRpc(ResultSet(rs));
    XmlRpcValue value(std::move(out));
    EXPECT_EQ(EncodeResponse(value), bench::TreeWriterResponse(value))
        << "trial " << trial;

    RpcRequest request;
    request.method = trial % 5 == 0 ? "" : "dataaccess.query";
    request.params.emplace_back("SELECT <x> & 'y'");
    if (trial % 2 == 0) request.params.push_back(value);
    if (trial % 3 == 0) request.session_token = "tok-" + std::to_string(trial);
    if (trial % 3 == 1) {
      request.trace_id = rng.Next() | 1;
      request.parent_span_id = rng.Next();
    }
    if (trial % 4 == 1) request.deadline_ms = rng.NextDouble() * 5000;
    if (trial % 4 == 2) request.tenant = "cms & \"atlas\"";
    if (trial % 4 == 3) request.wire_accept = "binary,lz4,stream";
    EXPECT_EQ(EncodeRequest(request), bench::TreeWriterRequest(request))
        << "trial " << trial;
  }
  EXPECT_EQ(EncodeRequest(RpcRequest{}), bench::TreeWriterRequest({}));

  // Scalars, strings needing escapes and non-finite / subnormal doubles
  // take the same fast path.
  for (const XmlRpcValue& v :
       {XmlRpcValue(int64_t{-7}), XmlRpcValue(INT64_MIN),
        XmlRpcValue(INT64_MAX), XmlRpcValue(2.5), XmlRpcValue(-0.0),
        XmlRpcValue(1e300), XmlRpcValue(4.9406564584124654e-324),
        XmlRpcValue(std::numeric_limits<double>::infinity()),
        XmlRpcValue(-std::numeric_limits<double>::quiet_NaN()),
        XmlRpcValue(true), XmlRpcValue("a <b> & \"c\" 'd'"),
        XmlRpcValue(""), XmlRpcValue(), XmlRpcValue(XmlRpcArray{}),
        XmlRpcValue(XmlRpcStruct{}),
        XmlRpcValue(XmlRpcStruct{{"", XmlRpcValue(" ")}})}) {
    EXPECT_EQ(EncodeResponse(v), bench::TreeWriterResponse(v));
  }

  for (const Status& fault :
       {NotFound("no such table 'x'"), Internal("a <b> & \"c\""),
        ResourceExhausted(""), Status(StatusCode::kOutOfRange, " pad ")}) {
    EXPECT_EQ(EncodeFault(fault), bench::TreeWriterFault(fault));
  }
}

// ---------- handshake + end-to-end over the simulated wire ----------

struct WireRpcFixture : public ::testing::Test {
  WireRpcFixture()
      : transport(&network, net::ServiceCosts::Default()),
        server("clarens://server-host:8080/clarens", &transport) {
    network.AddHost("server-host");
    network.AddHost("client-host");
    (void)server.RegisterMethod(
        "data.fetch",
        [this](const XmlRpcArray& params, CallContext& ctx)
            -> Result<XmlRpcValue> {
          (void)ctx;
          GRIDDB_ASSIGN_OR_RETURN(int64_t rows, params.at(0).AsInt());
          XmlRpcStruct out;
          out["rows"] = rows;
          out["result"] = ResultSetToRpc(WideResultSet(
              static_cast<size_t>(rows)));
          return XmlRpcValue(std::move(out));
        });
  }

  std::unique_ptr<RpcClient> MakeClient(uint32_t preference) {
    auto client = std::make_unique<RpcClient>(
        &transport, "client-host", "clarens://server-host:8080/clarens");
    client->set_wire_preference(preference);
    return client;
  }

  Result<ResultSet> Fetch(RpcClient& client, int64_t rows,
                          CallStats* stats = nullptr) {
    XmlRpcArray params;
    params.emplace_back(rows);
    GRIDDB_ASSIGN_OR_RETURN(
        XmlRpcValue response,
        client.Call("data.fetch", std::move(params), nullptr, 0, "", stats));
    GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* member,
                            response.Member("result"));
    return RpcToResultSet(*member);
  }

  net::Network network;
  Transport transport;
  RpcServer server;
};

TEST_F(WireRpcFixture, HandshakeMatrixFallsBackWherever) {
  struct Cell {
    uint32_t client_pref;
    uint32_t server_caps;
    uint32_t expect;
  };
  const Cell cells[] = {
      {0, wire::kAllCaps, 0},                      // legacy client
      {wire::kAllCaps, 0, 0},                      // legacy server
      {wire::kAllCaps, wire::kAllCaps, wire::kAllCaps},
      {wire::kCapBinary, wire::kAllCaps, wire::kCapBinary},
      {wire::kAllCaps, wire::kCapBinary | wire::kCapLz4,
       wire::kCapBinary | wire::kCapLz4},          // server without streaming
      {0, 0, 0},
  };
  for (const Cell& cell : cells) {
    server.set_wire_caps(cell.server_caps);
    std::unique_ptr<RpcClient> client = MakeClient(cell.client_pref);
    auto rs = Fetch(*client, 100);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows.size(), 100u);
    EXPECT_EQ(client->negotiated_caps(), cell.expect)
        << "pref " << cell.client_pref << " caps " << cell.server_caps;
  }
  server.set_wire_caps(wire::kAllCaps);
}

TEST_F(WireRpcFixture, EveryStatusCodeCrossesEveryPathByteExact) {
  // Each error code and its message must arrive exactly as the handler
  // returned it: over XML-RPC, over a binary-negotiated session (faults
  // always travel as XML) and through a relay server that forwards the
  // call and re-encodes the fault it got back.
  (void)server.RegisterMethod(
      "fail.with",
      [](const XmlRpcArray& params, CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        GRIDDB_ASSIGN_OR_RETURN(int64_t code, params.at(0).AsInt());
        GRIDDB_ASSIGN_OR_RETURN(std::string message, params.at(1).AsString());
        return Status(static_cast<StatusCode>(code), message);
      });
  network.AddHost("relay-host");
  RpcServer relay("clarens://relay-host:8080/clarens", &transport);
  RpcClient upstream(&transport, "relay-host",
                     "clarens://server-host:8080/clarens");
  upstream.set_wire_preference(wire::kAllCaps);
  (void)relay.RegisterMethod(
      "relay.fail",
      [&upstream](const XmlRpcArray& params,
                  CallContext& ctx) -> Result<XmlRpcValue> {
        (void)ctx;
        return upstream.Call("fail.with", params, nullptr);
      });

  for (int c = static_cast<int>(StatusCode::kInvalidArgument);
       c <= static_cast<int>(StatusCode::kOutOfRange); ++c) {
    const auto code = static_cast<StatusCode>(c);
    const Status want(code, std::string(StatusCodeName(code)) +
                                ": \t table 'x' <gone> & \"y\" " +
                                std::to_string(c) + " ");
    for (uint32_t preference : {0u, uint32_t{wire::kAllCaps}}) {
      std::unique_ptr<RpcClient> direct = MakeClient(preference);
      RpcClient via_relay(&transport, "client-host",
                          "clarens://relay-host:8080/clarens");
      via_relay.set_wire_preference(preference);
      for (RpcClient* client : {direct.get(), &via_relay}) {
        const std::string method =
            client == direct.get() ? "fail.with" : "relay.fail";
        XmlRpcArray params;
        params.emplace_back(int64_t{c});
        params.emplace_back(want.message());
        auto got = client->Call(method, std::move(params), nullptr);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status(), want)
            << method << " pref " << preference << ": "
            << got.status().ToString();
      }
    }
  }
}

TEST_F(WireRpcFixture, CrossCodecResultsAreEqual) {
  std::unique_ptr<RpcClient> xml_client = MakeClient(0);
  std::unique_ptr<RpcClient> bin_client = MakeClient(wire::kAllCaps);
  for (int64_t rows : {0, 3, 1000, 3000}) {  // 3000 crosses the chunk size
    CallStats xml_stats, bin_stats;
    auto via_xml = Fetch(*xml_client, rows, &xml_stats);
    auto via_bin = Fetch(*bin_client, rows, &bin_stats);
    ASSERT_TRUE(via_xml.ok()) << via_xml.status().ToString();
    ASSERT_TRUE(via_bin.ok()) << via_bin.status().ToString();
    EXPECT_EQ(via_xml->columns, via_bin->columns);
    EXPECT_EQ(via_xml->rows, via_bin->rows) << rows << " rows";
    if (rows > 0) {
      EXPECT_LT(bin_stats.response_bytes, xml_stats.response_bytes);
    }
    if (rows > 1024) {
      EXPECT_GT(bin_stats.streamed_chunks, 1);
      EXPECT_GE(bin_stats.first_chunk_ms, 0.0);
    } else {
      EXPECT_EQ(bin_stats.streamed_chunks, 0);
      EXPECT_LT(bin_stats.first_chunk_ms, 0.0);
    }
  }
}

TEST_F(WireRpcFixture, FaultsStayXmlAndDecodeOnBinaryClients) {
  std::unique_ptr<RpcClient> bin_client = MakeClient(wire::kAllCaps);
  auto result = bin_client->Call("no.such.method", {}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(WireRpcFixture, CorruptFrameDetectedAndRetried) {
  // The fate stream is seeded and a streamed response draws one fate
  // per frame, so scan seeds for a run where the plan damages at least
  // one *binary frame* (the griddb.wire.corrupt_frames digest counter
  // moves) and the retry budget still recovers the call — then hold the
  // recovered result to the server's rows.
  obs::Counter* corrupt_frames =
      obs::MetricsRegistry::Default().GetCounter("griddb.wire.corrupt_frames");
  bool recovered = false;
  for (uint64_t seed = 1; seed <= 64 && !recovered; ++seed) {
    auto plan = std::make_shared<net::FaultPlan>(seed);
    net::LinkFaultSpec spec;
    spec.corrupt_probability = 0.1;
    plan->SetLinkFaults("client-host", "server-host", spec);
    network.InstallFaultPlan(plan);

    std::unique_ptr<RpcClient> client = MakeClient(wire::kAllCaps);
    RetryPolicy policy = RetryPolicy::Default();
    policy.max_attempts = 8;
    client->set_retry_policy(policy);
    const uint64_t frames_before = corrupt_frames->value();
    CallStats stats;
    auto rs = Fetch(*client, 3000, &stats);
    if (!rs.ok() || stats.retries == 0 ||
        corrupt_frames->value() == frames_before) {
      continue;
    }
    recovered = true;
    ASSERT_EQ(rs->rows.size(), 3000u);
    // The delivered rows are the server's rows, not the damaged ones.
    EXPECT_EQ(rs->rows[1234][0], Value(int64_t{1234}));
    EXPECT_GT(network.fault_counters().corruptions, 0u);
  }
  EXPECT_TRUE(recovered)
      << "no seed in [1, 64] both damaged a frame and recovered";
}

TEST_F(WireRpcFixture, CorruptionWithoutRetriesSurfacesPrecisely) {
  auto plan = std::make_shared<net::FaultPlan>(3);
  net::LinkFaultSpec spec;
  spec.corrupt_probability = 1.0;
  plan->SetLinkFaults("client-host", "server-host", spec);
  network.InstallFaultPlan(plan);

  std::unique_ptr<RpcClient> client = MakeClient(wire::kAllCaps);
  auto rs = Fetch(*client, 2000);
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().code() == StatusCode::kCorruption ||
              rs.status().code() == StatusCode::kUnavailable)
      << rs.status().ToString();
}

// ---------- the data-access fan-out over both codecs ----------

struct WireFanoutFixture : public ::testing::Test {
  WireFanoutFixture()
      : transport(&network, net::ServiceCosts::Default()),
        db_remote("db_remote", sql::Vendor::kMySql) {
    for (const char* h : {"server-a", "server-b", "rls-host", "client"}) {
      network.AddHost(h);
    }
    rls = std::make_unique<rls::RlsServer>("rls://rls-host:39281/rls",
                                           &transport);
    EXPECT_TRUE(db_remote.Execute("CREATE TABLE WIDE_EVENTS (ID INT PRIMARY "
                                  "KEY, E DOUBLE, TAG VARCHAR(16))")
                    .ok());
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(
          db_remote
              .Execute("INSERT INTO WIDE_EVENTS (ID, E, TAG) VALUES (" +
                       std::to_string(i) + ", " + std::to_string(i) + ".5, " +
                       (i % 9 == 0 ? std::string("NULL")
                                   : "'tag" + std::to_string(i % 4) + "'") +
                       ")")
              .ok());
    }
    EXPECT_TRUE(catalog
                    .Add({"mysql://server-b/db_remote", &db_remote, "server-b",
                          "", ""})
                    .ok());
    core::DataAccessConfig config_b;
    config_b.server_name = "jclarens-b";
    config_b.host = "server-b";
    config_b.server_url = "clarens://server-b:8080/clarens";
    config_b.rls_url = "rls://rls-host:39281/rls";
    server_b = std::make_unique<core::JClarensServer>(config_b, &catalog,
                                                      &transport);
    EXPECT_TRUE(server_b->service()
                    .RegisterLiveDatabase("mysql://server-b/db_remote", "")
                    .ok());
  }

  /// A query-only coordinator on `client`; WIDE_EVENTS resolves through
  /// the RLS and is fetched remotely from server-b over `wire_protocol`.
  std::unique_ptr<core::DataAccessService> Coordinator(
      const std::string& wire_protocol) {
    core::DataAccessConfig config;
    config.server_name = "coordinator";
    config.host = "client";
    config.rls_url = "rls://rls-host:39281/rls";
    config.wire_protocol = wire_protocol;
    return std::make_unique<core::DataAccessService>(config, &catalog,
                                                     &transport);
  }

  net::Network network;
  rpc::Transport transport;
  engine::Database db_remote;
  ral::DatabaseCatalog catalog;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<core::JClarensServer> server_b;
};

TEST_F(WireFanoutFixture, RemoteFetchMatchesAcrossCodecsAndStreams) {
  auto via_xml = Coordinator("xmlrpc");
  auto via_bin = Coordinator("binary");
  const std::string sql = "SELECT id, e, tag FROM wide_events";
  auto xml_rs = via_xml->Query(sql);
  auto bin_rs = via_bin->Query(sql);
  ASSERT_TRUE(xml_rs.ok()) << xml_rs.status().ToString();
  ASSERT_TRUE(bin_rs.ok()) << bin_rs.status().ToString();
  ASSERT_EQ(xml_rs->num_rows(), 2000u);
  ASSERT_EQ(bin_rs->num_rows(), 2000u);
  EXPECT_EQ(xml_rs->columns, bin_rs->columns);
  for (size_t r = 0; r < xml_rs->rows.size(); ++r) {
    ASSERT_EQ(xml_rs->rows[r], bin_rs->rows[r]) << "row " << r;
  }
  // 2000 rows crossed the 1024-row chunk threshold: the streamed path
  // recorded a first-chunk latency.
  EXPECT_GT(obs::MetricsRegistry::Default()
                .GetHistogram("griddb.wire.stream_first_chunk_ms")
                ->count(),
            0u);
}

TEST_F(WireFanoutFixture, StreamedFetchSurvivesInjectedCorruption) {
  auto plan = std::make_shared<net::FaultPlan>(13);
  net::LinkFaultSpec spec;
  spec.corrupt_probability = 0.25;
  plan->SetLinkFaults("client", "server-b", spec);
  network.InstallFaultPlan(plan);

  core::DataAccessConfig config;
  config.server_name = "coordinator";
  config.host = "client";
  config.rls_url = "rls://rls-host:39281/rls";
  config.wire_protocol = "binary";
  config.retry_policy = rpc::RetryPolicy::Default();
  core::DataAccessService coordinator(config, &catalog, &transport);

  auto rs = coordinator.Query("SELECT id, e, tag FROM wide_events");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 2000u);
  EXPECT_GT(network.fault_counters().corruptions, 0u);
}

}  // namespace
}  // namespace griddb::rpc
