// Tests for the HTTP message model and wire codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "http/codec.h"
#include "http/header_map.h"
#include "http/message.h"
#include "net/payload.h"
#include "sim/random.h"

namespace meshnet::http {
namespace {

TEST(HeaderMap, SetAndGet) {
  HeaderMap map;
  map.set("Host", "frontend");
  EXPECT_EQ(map.get("host").value_or(""), "frontend");
  EXPECT_EQ(map.get("HOST").value_or(""), "frontend");
  EXPECT_FALSE(map.get("missing").has_value());
}

TEST(HeaderMap, NamesStoredLowercase) {
  HeaderMap map;
  map.set("X-Request-ID", "abc");
  EXPECT_EQ(map.entries()[0].first, "x-request-id");
}

TEST(HeaderMap, SetReplacesAllValues) {
  HeaderMap map;
  map.add("k", "1");
  map.add("k", "2");
  map.set("K", "3");
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.get("k").value_or(""), "3");
}

TEST(HeaderMap, AddKeepsDuplicates) {
  HeaderMap map;
  map.add("accept", "a");
  map.add("accept", "b");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get("accept").value_or(""), "a");  // first wins
}

TEST(HeaderMap, RemoveReturnsCount) {
  HeaderMap map;
  map.add("x", "1");
  map.add("x", "2");
  map.add("y", "3");
  EXPECT_EQ(map.remove("X"), 2u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.remove("x"), 0u);
}

TEST(HeaderMap, GetOrFallback) {
  HeaderMap map;
  EXPECT_EQ(map.get_or("a", "dflt"), "dflt");
  map.set("a", "v");
  EXPECT_EQ(map.get_or("a", "dflt"), "v");
}

TEST(HeaderMap, PreservesInsertionOrder) {
  HeaderMap map;
  map.add("c", "3");
  map.add("a", "1");
  map.add("b", "2");
  EXPECT_EQ(map.entries()[0].first, "c");
  EXPECT_EQ(map.entries()[1].first, "a");
  EXPECT_EQ(map.entries()[2].first, "b");
}

// ---- Interned well-known names ----------------------------------------

TEST(HeaderIntern, WellKnownNamesRoundTrip) {
  using headers::Id;
  const std::pair<std::string_view, Id> cases[] = {
      {headers::kContentLength, Id::kContentLength},
      {headers::kHost, Id::kHost},
      {headers::kRequestId, Id::kRequestId},
      {headers::kMeshPriority, Id::kMeshPriority},
      {headers::kTraceId, Id::kTraceId},
      {headers::kSpanId, Id::kSpanId},
      {headers::kParentSpanId, Id::kParentSpanId},
      {headers::kRetryAttempt, Id::kRetryAttempt},
      {headers::kMeshSource, Id::kMeshSource},
  };
  for (const auto& [name, id] : cases) {
    EXPECT_EQ(headers::intern(name), id) << name;
    EXPECT_EQ(headers::name_of(id), name);
  }
}

TEST(HeaderIntern, CaseInsensitiveAndUnknown) {
  EXPECT_EQ(headers::intern("Content-Length"), headers::Id::kContentLength);
  EXPECT_EQ(headers::intern("X-MESH-PRIORITY"), headers::Id::kMeshPriority);
  EXPECT_EQ(headers::intern("x-app"), headers::Id::kUnknown);
  EXPECT_EQ(headers::intern(""), headers::Id::kUnknown);
  // Same length as a well-known name but different bytes.
  EXPECT_EQ(headers::intern("content-lengtX"), headers::Id::kUnknown);
}

TEST(HeaderIntern, IdAndStringAccessorsAgree) {
  HeaderMap map;
  map.set("X-Mesh-Priority", "high");   // string set, mixed case
  map.set(headers::Id::kHost, "reviews");
  map.add("x-app", "frontend");

  EXPECT_EQ(map.get(headers::Id::kMeshPriority).value_or(""), "high");
  EXPECT_EQ(map.get("x-mesh-priority").value_or(""), "high");
  EXPECT_EQ(map.get(headers::Id::kHost).value_or(""), "reviews");
  EXPECT_EQ(map.get("Host").value_or(""), "reviews");
  EXPECT_TRUE(map.has(headers::Id::kMeshPriority));
  EXPECT_FALSE(map.has(headers::Id::kRetryAttempt));

  // id_at mirrors entries() order; unknown names intern to kUnknown.
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.id_at(0), headers::Id::kMeshPriority);
  EXPECT_EQ(map.id_at(1), headers::Id::kHost);
  EXPECT_EQ(map.id_at(2), headers::Id::kUnknown);

  // Id-keyed set overwrites the string-keyed entry and vice versa.
  map.set(headers::Id::kMeshPriority, "low");
  EXPECT_EQ(map.get("x-mesh-priority").value_or(""), "low");
  map.set("host", "ratings");
  EXPECT_EQ(map.get(headers::Id::kHost).value_or(""), "ratings");

  EXPECT_EQ(map.remove(headers::Id::kHost), 1u);
  EXPECT_FALSE(map.has("host"));
}

TEST(HeaderIntern, SerializedNamesAreCanonicalLowercase) {
  HttpRequest request;
  request.headers.set("X-Mesh-Priority", "high");
  request.headers.set(headers::Id::kHost, "reviews");
  const std::string wire = serialize_request(request);
  EXPECT_NE(wire.find("x-mesh-priority: high"), std::string::npos);
  EXPECT_NE(wire.find("host: reviews"), std::string::npos);
}

TEST(Message, RequestIdAccessors) {
  HttpRequest req;
  EXPECT_EQ(req.request_id(), "");
  req.set_request_id("req-1");
  EXPECT_EQ(req.request_id(), "req-1");
  EXPECT_EQ(req.headers.get_or(headers::kRequestId, ""), "req-1");
}

TEST(Message, GenerateRequestIdIsUnique) {
  reset_request_id_counter();
  const std::string a = generate_request_id();
  const std::string b = generate_request_id();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("req-", 0), 0u);
}

TEST(Message, ResetRequestIdCounterRepeats) {
  reset_request_id_counter();
  const std::string a = generate_request_id();
  reset_request_id_counter();
  EXPECT_EQ(generate_request_id(), a);
}

TEST(Message, StatusText) {
  EXPECT_EQ(status_text(200), "OK");
  EXPECT_EQ(status_text(503), "Service Unavailable");
  EXPECT_EQ(status_text(418), "Unknown");
  EXPECT_TRUE(HttpResponse{204}.ok());
  EXPECT_FALSE(HttpResponse{500}.ok());
}

TEST(Codec, SerializeRequestBasics) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/submit";
  req.headers.set("host", "svc");
  req.body = "hello";
  const std::string wire = serialize_request(req);
  EXPECT_EQ(wire.rfind("POST /submit HTTP/1.1\r\n", 0), 0u);
  EXPECT_NE(wire.find("host: svc\r\n"), std::string::npos);
  EXPECT_NE(wire.find("content-length: 5\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(Codec, SerializeResponseBasics) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "nope";
  const std::string wire = serialize_response(resp);
  EXPECT_EQ(wire.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(wire.find("content-length: 4\r\n"), std::string::npos);
}

TEST(Codec, ContentLengthAlwaysAccurate) {
  HttpRequest req;
  req.headers.set("content-length", "999");  // stale; must be replaced
  req.body = "abc";
  const std::string wire = serialize_request(req);
  EXPECT_NE(wire.find("content-length: 3\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("999"), std::string::npos);
}

HttpRequest parse_one_request(const std::string& wire) {
  HttpParser parser(ParserKind::kRequest);
  HttpRequest out;
  parser.set_on_request([&](HttpRequest r) { out = std::move(r); });
  EXPECT_TRUE(parser.feed(wire));
  EXPECT_EQ(parser.messages_parsed(), 1u);
  return out;
}

TEST(Codec, RequestRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.path = "/product/7";
  req.headers.set("host", "frontend");
  req.headers.set("x-mesh-priority", "high");
  req.body = "payload-bytes";
  const HttpRequest parsed = parse_one_request(serialize_request(req));
  EXPECT_EQ(parsed.method, "GET");
  EXPECT_EQ(parsed.path, "/product/7");
  EXPECT_EQ(parsed.headers.get_or("host", ""), "frontend");
  EXPECT_EQ(parsed.headers.get_or("x-mesh-priority", ""), "high");
  EXPECT_EQ(parsed.body, "payload-bytes");
}

TEST(Codec, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 503;
  resp.headers.set("x-served-by", "sidecar");
  resp.body = std::string(10000, 'z');
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  EXPECT_TRUE(parser.feed(serialize_response(resp)));
  EXPECT_EQ(out.status, 503);
  EXPECT_EQ(out.headers.get_or("x-served-by", ""), "sidecar");
  EXPECT_EQ(out.body, resp.body);
}

TEST(Codec, EmptyBodyRoundTrip) {
  HttpRequest req;
  const HttpRequest parsed = parse_one_request(serialize_request(req));
  EXPECT_EQ(parsed.body, "");
}

// Property: parsing is chunking-invariant — any split of the wire bytes
// produces the same messages.
class ChunkedFeedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedFeedTest, ByteChunksParseIdentically) {
  const std::size_t chunk = GetParam();
  HttpRequest req;
  req.method = "PUT";
  req.path = "/a/b";
  req.headers.set("host", "x");
  req.body = std::string(777, 'q');
  const std::string wire = serialize_request(req);

  HttpParser parser(ParserKind::kRequest);
  std::vector<HttpRequest> messages;
  parser.set_on_request([&](HttpRequest r) { messages.push_back(std::move(r)); });
  for (std::size_t i = 0; i < wire.size(); i += chunk) {
    ASSERT_TRUE(parser.feed(std::string_view(wire).substr(
        i, std::min(chunk, wire.size() - i))));
  }
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].body, req.body);
  EXPECT_EQ(messages[0].path, "/a/b");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedFeedTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1024, 10000));

TEST(Codec, PipelinedMessagesInOneChunk) {
  HttpRequest a, b;
  a.path = "/first";
  a.body = "AAA";
  b.path = "/second";
  b.body = "BBBBBB";
  const std::string wire = serialize_request(a) + serialize_request(b);
  HttpParser parser(ParserKind::kRequest);
  std::vector<HttpRequest> messages;
  parser.set_on_request([&](HttpRequest r) { messages.push_back(std::move(r)); });
  ASSERT_TRUE(parser.feed(wire));
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].path, "/first");
  EXPECT_EQ(messages[0].body, "AAA");
  EXPECT_EQ(messages[1].path, "/second");
  EXPECT_EQ(messages[1].body, "BBBBBB");
}

TEST(Codec, ManyPipelinedMessages) {
  std::string wire;
  for (int i = 0; i < 50; ++i) {
    HttpRequest r;
    r.path = "/n/" + std::to_string(i);
    r.body = std::string(static_cast<std::size_t>(i), 'x');
    wire += serialize_request(r);
  }
  HttpParser parser(ParserKind::kRequest);
  int count = 0;
  parser.set_on_request([&](HttpRequest) { ++count; });
  ASSERT_TRUE(parser.feed(wire));
  EXPECT_EQ(count, 50);
}

TEST(Codec, BadStartLineSetsError) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("NOT-HTTP\r\n\r\n"));
  EXPECT_TRUE(parser.has_error());
  EXPECT_EQ(parser.error(), ParserError::kBadStartLine);
}

TEST(Codec, BadResponseStatusSetsError) {
  HttpParser parser(ParserKind::kResponse);
  EXPECT_FALSE(parser.feed("HTTP/1.1 9999 Weird\r\n\r\n"));
  EXPECT_EQ(parser.error(), ParserError::kBadStartLine);
}

TEST(Codec, HeaderWithoutColonSetsError) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("GET / HTTP/1.1\r\nbad header line\r\n\r\n"));
  EXPECT_EQ(parser.error(), ParserError::kBadHeader);
}

TEST(Codec, BadContentLengthSetsError) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(
      parser.feed("GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n"));
  EXPECT_EQ(parser.error(), ParserError::kBadContentLength);
}

TEST(Codec, OversizedHeadSetsError) {
  HttpParser parser(ParserKind::kRequest);
  std::string huge = "GET / HTTP/1.1\r\n";
  huge.append(HttpParser::kMaxHeadBytes + 1024, 'h');  // no terminator
  EXPECT_FALSE(parser.feed(huge));
  EXPECT_EQ(parser.error(), ParserError::kHeadTooLarge);
}

TEST(Codec, ErrorStateIgnoresFurtherInput) {
  HttpParser parser(ParserKind::kRequest);
  EXPECT_FALSE(parser.feed("garbage\r\n\r\n"));
  EXPECT_FALSE(parser.feed("GET / HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(parser.messages_parsed(), 0u);
}

TEST(Codec, ResetRecoversFromError) {
  HttpParser parser(ParserKind::kRequest);
  int count = 0;
  parser.set_on_request([&](HttpRequest) { ++count; });
  EXPECT_FALSE(parser.feed("garbage\r\n\r\n"));
  parser.reset();
  EXPECT_FALSE(parser.has_error());
  EXPECT_TRUE(parser.feed("GET / HTTP/1.1\r\ncontent-length: 0\r\n\r\n"));
  EXPECT_EQ(count, 1);
}

TEST(Codec, HeaderValuesAreTrimmed) {
  HttpParser parser(ParserKind::kRequest);
  HttpRequest out;
  parser.set_on_request([&](HttpRequest r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed("GET / HTTP/1.1\r\nhost:   spaced   \r\n\r\n"));
  EXPECT_EQ(out.headers.get_or("host", ""), "spaced");
}

TEST(Codec, LargeBinaryBodySurvives) {
  std::string bytes(2 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 31 + 7);
  }
  HttpResponse resp;
  resp.body = bytes;
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed(serialize_response(resp)));
  EXPECT_EQ(out.body, resp.body);
}

TEST(Codec, HugeContentLengthFailsWithoutAllocating) {
  HttpParser parser(ParserKind::kResponse);
  bool ok = true;
  EXPECT_NO_THROW(ok = parser.feed("HTTP/1.1 200 OK\r\n"
                                   "content-length: 1000000000000\r\n\r\n"));
  EXPECT_FALSE(ok);
  EXPECT_EQ(parser.error(), ParserError::kBodyTooLarge);

  // A normal bulk body still parses, fed as a pooled block.
  parser.reset();
  HttpResponse resp;
  resp.body.assign(2 * 1024 * 1024, 'b');
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed(encode_response(resp)));
  EXPECT_EQ(parser.messages_parsed(), 1u);
  EXPECT_EQ(out.body, resp.body);
}

// ----- Aliasing: a body fed as consecutive slices of one block is kept by
// reference; anything else is copied once. -----

HttpResponse bulk_response(std::size_t bytes) {
  std::string body(bytes, '\0');
  for (std::size_t i = 0; i < bytes; ++i) {
    body[i] = static_cast<char>(i * 7 + 3);
  }
  HttpResponse resp;
  resp.headers.set("x-served-by", "test");
  resp.body = body;
  return resp;
}

bool inside(const char* p, const net::Payload& block) {
  return p >= block.data() && p < block.data() + block.size();
}

TEST(CodecAliasing, MssSlicesOfOneBlockAreKeptByReference) {
  const HttpResponse resp = bulk_response(100'000);
  const net::Payload wire = encode_response(resp);
  HttpParser parser(ParserKind::kResponse);
  std::vector<HttpResponse> out;
  parser.set_on_response([&](HttpResponse r) { out.push_back(std::move(r)); });
  for (std::size_t at = 0; at < wire.size(); at += 1460) {
    ASSERT_TRUE(parser.feed(wire.slice(at, std::min<std::size_t>(
                                               1460, wire.size() - at))));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].body, resp.body);
  EXPECT_TRUE(inside(out[0].body.data(), wire));
  EXPECT_EQ(out[0].body.data() + out[0].body.size(), wire.data() + wire.size());
}

TEST(CodecAliasing, ChunksOfTwoBlocksAreCopied) {
  const HttpResponse resp = bulk_response(50'000);
  const std::string wire = serialize_response(resp);
  const std::size_t half = wire.size() / 2;
  const net::Payload first = net::Payload::copy_of(
      std::string_view(wire).substr(0, half));
  const net::Payload second = net::Payload::copy_of(
      std::string_view(wire).substr(half));
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed(first));
  ASSERT_TRUE(parser.feed(second));
  EXPECT_EQ(parser.messages_parsed(), 1u);
  EXPECT_EQ(out.body, resp.body);
  EXPECT_FALSE(inside(out.body.data(), first));
  EXPECT_FALSE(inside(out.body.data(), second));
}

TEST(CodecAliasing, StringViewFeedsAreCopied) {
  const HttpResponse resp = bulk_response(20'000);
  const net::Payload wire = encode_response(resp);
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  ASSERT_TRUE(parser.feed(wire.view()));
  EXPECT_EQ(out.body, resp.body);
  EXPECT_FALSE(inside(out.body.data(), wire));
}

TEST(CodecAliasing, SwitchFromAliasingToCopyingKeepsEveryByte) {
  const HttpResponse resp = bulk_response(30'000);
  const net::Payload wire = encode_response(resp);
  const std::size_t cut = wire.size() - 10'000;  // mid-body
  HttpParser parser(ParserKind::kResponse);
  HttpResponse out;
  parser.set_on_response([&](HttpResponse r) { out = std::move(r); });
  for (std::size_t at = 0; at < cut; at += 1460) {
    ASSERT_TRUE(
        parser.feed(wire.slice(at, std::min<std::size_t>(1460, cut - at))));
  }
  EXPECT_EQ(parser.buffered_bytes(), cut - (wire.size() - resp.body.size()));
  // The rest arrives re-blocked (say, through a TLS record), then as a
  // slice of the original block again: both are copied.
  ASSERT_TRUE(
      parser.feed(net::Payload::copy_of(wire.view().substr(cut, 4000))));
  ASSERT_TRUE(parser.feed(wire.slice(cut + 4000, wire.size() - cut - 4000)));
  EXPECT_EQ(parser.messages_parsed(), 1u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(out.body, resp.body);
  EXPECT_FALSE(inside(out.body.data(), wire));
}

TEST(CodecAliasing, BodyCopiesShareTheBlock) {
  HttpRequest req;
  req.body.assign(4096, 'r');
  const HttpRequest copy = req;  // the sidecar's retry-safe copy
  EXPECT_EQ(copy.body.data(), req.body.data());
  EXPECT_EQ(copy.body, req.body);
  std::ostringstream printed;
  printed << Body{net::Payload::copy_of("abc")};
  EXPECT_EQ(printed.str(), "abc");
}

// ----- Wire pieces: a message goes out as its serialized head plus the
// body's own block; only a join copies the body. -----

std::uint64_t bytes_copied() { return net::payload_pool_stats().bytes_copied; }

TEST(CodecPieces, PiecesAreTheWireBytesWithoutABodyCopy) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/upload";
  req.headers.set("x-a", "1");
  req.body.assign(5000, 'q');
  const HttpResponse resp = bulk_response(7000);
  const std::string req_wire = serialize_request(req);
  const std::string resp_wire = serialize_response(resp);

  const std::uint64_t before = bytes_copied();
  const WirePieces req_pieces = encode_request_pieces(req);
  const WirePieces resp_pieces = encode_response_pieces(resp);
  EXPECT_EQ(bytes_copied(), before);
  EXPECT_EQ(req_pieces.body.data(), req.body.data());
  EXPECT_EQ(resp_pieces.body.data(), resp.body.data());
  EXPECT_EQ(std::string(req_pieces.head.view()) +
                std::string(req_pieces.body.view()),
            req_wire);
  EXPECT_EQ(std::string(resp_pieces.head.view()) +
                std::string(resp_pieces.body.view()),
            resp_wire);

  // Joining copies the body once; the head is serialized, not copied.
  const net::Payload joined = join(resp_pieces.head, resp_pieces.body);
  EXPECT_EQ(joined.view(), resp_wire);
  EXPECT_EQ(bytes_copied() - before, resp.body.size());
  EXPECT_EQ(encode_request(req).view(), req_wire);
  EXPECT_EQ(bytes_copied() - before, resp.body.size() + req.body.size());

  const HttpRequest bodyless;
  EXPECT_TRUE(encode_request_pieces(bodyless).body.empty());
}

TEST(CodecPieces, BodyArrivingAsSlicesOfItsOwnBlockIsAliased) {
  const HttpResponse resp = bulk_response(100'000);
  const WirePieces wire = encode_response_pieces(resp);
  HttpParser parser(ParserKind::kResponse);
  std::vector<HttpResponse> out;
  parser.set_on_response([&](HttpResponse r) { out.push_back(std::move(r)); });
  const std::uint64_t before = bytes_copied();
  // The transport's cut at a 1460 B MSS: the first segment is the head
  // plus the body's first bytes, handed up as two slices.
  constexpr std::size_t kMss = 1460;
  ASSERT_LT(wire.head.size(), kMss);
  const std::size_t first = kMss - wire.head.size();
  ASSERT_TRUE(parser.feed(wire.head));
  ASSERT_TRUE(parser.feed(wire.body.slice(0, first)));
  for (std::size_t at = first; at < wire.body.size(); at += kMss) {
    ASSERT_TRUE(parser.feed(wire.body.slice(
        at, std::min(kMss, wire.body.size() - at))));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].body, resp.body);
  EXPECT_EQ(out[0].body.data(), resp.body.data());
  EXPECT_EQ(bytes_copied(), before);

  // The owned-block fallback counts what it copies.
  ASSERT_TRUE(parser.feed(encode_response(resp).view()));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(bytes_copied() - before, 2 * resp.body.size());  // join + parse
}

// ----- Randomized round-trip fuzz: decode(encode(m)) == m for arbitrary
// messages, under arbitrary wire chunking and pipelining. -----

// Random trimmed header value: the parser strips surrounding whitespace,
// so values are generated with none (interior spaces are fair game).
std::string random_header_value(sim::RngStream& rng) {
  const std::size_t len = rng.uniform_int(0, 24);
  std::string value(len, '?');
  for (std::size_t i = 0; i < len; ++i) {
    const bool interior = i != 0 && i + 1 != len;
    // Printable ASCII minus CR/LF; spaces only in the interior.
    do {
      value[i] = static_cast<char>(rng.uniform_int(interior ? 0x20 : 0x21,
                                                   0x7e));
    } while (value[i] == ' ' && !interior);
  }
  return value;
}

// Random header name: lowercase (the parser canonicalizes to lowercase,
// so generating lowercase keeps equality exact), never content-length
// (the serializer owns that one).
std::string random_header_name(sim::RngStream& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789-";
  std::string name;
  do {
    const std::size_t len = rng.uniform_int(1, 16);
    name.assign(len, '?');
    for (std::size_t i = 0; i < len; ++i) {
      name[i] = kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
    }
  } while (name == headers::kContentLength);
  return name;
}

void fill_random_headers(HeaderMap& map, sim::RngStream& rng) {
  static constexpr headers::Id kWellKnown[] = {
      headers::Id::kHost,        headers::Id::kRequestId,
      headers::Id::kMeshPriority, headers::Id::kTraceId,
      headers::Id::kSpanId,      headers::Id::kParentSpanId,
      headers::Id::kRetryAttempt, headers::Id::kMeshSource,
      headers::Id::kDeadlineMs,  headers::Id::kShedReason,
  };
  const std::size_t count = rng.uniform_int(0, 8);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.bernoulli(0.5)) {
      // Interned fast path — including duplicates via add().
      const headers::Id id =
          kWellKnown[rng.uniform_int(0, std::size(kWellKnown) - 1)];
      map.add(headers::name_of(id), random_header_value(rng));
    } else {
      map.add(random_header_name(rng), random_header_value(rng));
    }
  }
}

// Body size classes: empty / tiny / medium / bulk, arbitrary bytes.
std::string random_body(sim::RngStream& rng) {
  std::size_t size = 0;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      size = 0;
      break;
    case 1:
      size = rng.uniform_int(1, 8);
      break;
    case 2:
      size = rng.uniform_int(100, 1000);
      break;
    default:
      size = rng.uniform_int(20000, 60000);
      break;
  }
  std::string body(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<char>(rng.uniform_int(0, 255));
  }
  return body;
}

HttpRequest random_request(sim::RngStream& rng) {
  static constexpr std::string_view kMethods[] = {"GET", "POST", "PUT",
                                                  "DELETE", "PATCH"};
  HttpRequest req;
  req.method = kMethods[rng.uniform_int(0, std::size(kMethods) - 1)];
  req.path = "/";
  for (std::uint64_t seg = rng.uniform_int(0, 3); seg > 0; --seg) {
    if (req.path.back() != '/') req.path += '/';
    for (std::uint64_t i = rng.uniform_int(1, 8); i > 0; --i) {
      req.path += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
  }
  fill_random_headers(req.headers, rng);
  req.body = random_body(rng);
  return req;
}

HttpResponse random_response(sim::RngStream& rng) {
  HttpResponse resp;
  resp.status = static_cast<int>(rng.uniform_int(100, 599));
  fill_random_headers(resp.headers, rng);
  resp.body = random_body(rng);
  return resp;
}

// How the fuzz hands wire bytes to the parser.
enum class FeedMode {
  kStringChunks,   ///< string_view chunks: always the copy path
  kPayloadSlices,  ///< slices of one wire block, some re-blocked
};

// Feeds `wire` to the parser in random-size chunks. In kPayloadSlices
// mode each chunk is a slice of one block holding all of `wire`, except
// that about a quarter are first copied into a block of their own, so
// bodies alias, copy, and switch from one to the other mid-body.
template <typename Parser>
void feed_in_random_chunks(Parser& parser, const std::string& wire,
                           sim::RngStream& rng,
                           FeedMode mode = FeedMode::kStringChunks) {
  const net::Payload block = mode == FeedMode::kPayloadSlices
                                 ? net::Payload::copy_of(wire)
                                 : net::Payload();
  std::size_t offset = 0;
  while (offset < wire.size()) {
    // Mix single bytes, small slivers, and big gulps so chunk edges land
    // in every parser state (start line, header line, CRLF, body).
    std::size_t chunk = 0;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        chunk = 1;
        break;
      case 1:
        chunk = rng.uniform_int(2, 40);
        break;
      default:
        chunk = rng.uniform_int(41, 30000);
        break;
    }
    chunk = std::min(chunk, wire.size() - offset);
    if (mode == FeedMode::kStringChunks) {
      ASSERT_TRUE(parser.feed(std::string_view(wire).substr(offset, chunk)));
    } else if (rng.bernoulli(0.25)) {
      ASSERT_TRUE(parser.feed(
          net::Payload::copy_of(std::string_view(wire).substr(offset, chunk))));
    } else {
      ASSERT_TRUE(parser.feed(block.slice(offset, chunk)));
    }
    offset += chunk;
  }
}

// The serializer owns content-length (rewrites it from the body), so the
// round-trip comparison normalizes it away on both sides.
HeaderMap without_content_length(const HeaderMap& map) {
  HeaderMap out = map;
  out.remove(headers::Id::kContentLength);
  return out;
}

void fuzz_requests(const char* stream, FeedMode mode) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, stream);
    std::vector<HttpRequest> originals;
    std::string wire;
    for (std::uint64_t i = rng.uniform_int(1, 3); i > 0; --i) {
      originals.push_back(random_request(rng));
      wire += serialize_request(originals.back());
    }
    HttpParser parser(ParserKind::kRequest);
    std::vector<HttpRequest> parsed;
    parser.set_on_request(
        [&](HttpRequest r) { parsed.push_back(std::move(r)); });
    feed_in_random_chunks(parser, wire, rng, mode);
    ASSERT_EQ(parsed.size(), originals.size());
    EXPECT_EQ(parser.buffered_bytes(), 0u);
    for (std::size_t i = 0; i < originals.size(); ++i) {
      EXPECT_EQ(parsed[i].method, originals[i].method);
      EXPECT_EQ(parsed[i].path, originals[i].path);
      EXPECT_EQ(parsed[i].body, originals[i].body);
      EXPECT_EQ(without_content_length(parsed[i].headers),
                without_content_length(originals[i].headers));
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

void fuzz_responses(const char* stream, FeedMode mode) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream rng(seed, stream);
    std::vector<HttpResponse> originals;
    std::string wire;
    for (std::uint64_t i = rng.uniform_int(1, 3); i > 0; --i) {
      originals.push_back(random_response(rng));
      wire += serialize_response(originals.back());
    }
    HttpParser parser(ParserKind::kResponse);
    std::vector<HttpResponse> parsed;
    parser.set_on_response(
        [&](HttpResponse r) { parsed.push_back(std::move(r)); });
    feed_in_random_chunks(parser, wire, rng, mode);
    ASSERT_EQ(parsed.size(), originals.size());
    EXPECT_EQ(parser.buffered_bytes(), 0u);
    for (std::size_t i = 0; i < originals.size(); ++i) {
      EXPECT_EQ(parsed[i].status, originals[i].status);
      EXPECT_EQ(parsed[i].body, originals[i].body);
      EXPECT_EQ(without_content_length(parsed[i].headers),
                without_content_length(originals[i].headers));
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

TEST(CodecFuzz, RandomRequestsRoundTripUnderRandomChunking) {
  fuzz_requests("http-fuzz-request", FeedMode::kStringChunks);
}

TEST(CodecFuzz, RandomResponsesRoundTripUnderRandomChunking) {
  fuzz_responses("http-fuzz-response", FeedMode::kStringChunks);
}

TEST(CodecFuzz, RandomRequestsRoundTripAsRandomPayloadSlices) {
  fuzz_requests("http-fuzz-request-slices", FeedMode::kPayloadSlices);
}

TEST(CodecFuzz, RandomResponsesRoundTripAsRandomPayloadSlices) {
  fuzz_responses("http-fuzz-response-slices", FeedMode::kPayloadSlices);
}

}  // namespace
}  // namespace meshnet::http
