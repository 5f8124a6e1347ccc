#pragma once

// HTTP/1.1 wire codec.
//
// encode_*_pieces() produce real request/status lines and header blocks
// with a content-length framed body as two wire pieces: the serialized
// head in its own small pooled block, and the body's own block, shared
// rather than copied. A plaintext hop sends both through
// Connection::send(head, body), so a body crosses it with no copy. The
// joined encode_*() form copies head and body into one block; it serves
// the mTLS hop (records are ciphertext, so the message is joined once and
// then encoded into one record block), serialize_*() and tests.
// HttpParser is an incremental push parser: feed it arbitrary byte chunks
// straight off a transport connection or out of a TLS channel and it
// emits complete messages, handling messages split across chunks and
// multiple pipelined messages inside one chunk. Body bytes that arrive as
// consecutive slices of one block are kept by reference, so a parsed body
// is a slice of the sender's body block (on an mTLS hop, of the sender's
// record block). Malformed input moves the parser into an error state
// that the caller can observe and reset.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.h"
#include "net/payload.h"

namespace meshnet::http {

/// A message's wire bytes as two pieces: `head` then `body`.
struct WirePieces {
  net::Payload head;  ///< start line and headers, freshly serialized
  net::Payload body;  ///< the message body's own block (no copy)
};

WirePieces encode_request_pieces(const HttpRequest& request);
WirePieces encode_response_pieces(const HttpResponse& response);

/// Head and body joined into one block (the body is copied).
net::Payload encode_request(const HttpRequest& request);
net::Payload encode_response(const HttpResponse& response);

/// `head` then `body` copied into one block: an mTLS hop joins a
/// message's pieces once, because its records are ciphertext.
net::Payload join(std::string_view head, std::string_view body);

/// The encoded wire bytes as a string (tests and benches).
std::string serialize_request(const HttpRequest& request);
std::string serialize_response(const HttpResponse& response);

enum class ParserKind { kRequest, kResponse };

enum class ParserError {
  kNone,
  kBadStartLine,
  kBadHeader,
  kBadContentLength,
  kHeadTooLarge,
  kBodyTooLarge,  ///< Content-Length exceeds a Payload's 32-bit size.
};

class HttpParser {
 public:
  using RequestHandler = std::function<void(HttpRequest)>;
  using ResponseHandler = std::function<void(HttpResponse)>;

  explicit HttpParser(ParserKind kind);

  void set_on_request(RequestHandler handler) {
    on_request_ = std::move(handler);
  }
  void set_on_response(ResponseHandler handler) {
    on_response_ = std::move(handler);
  }

  /// Consumes a chunk of bytes. Returns false once the parser is in an
  /// error state (further input is ignored until reset()). Body bytes fed
  /// as consecutive slices of one block are kept by reference; anything
  /// else (a string_view, a slice of another block) is copied once into a
  /// pooled block sized by Content-Length, allocated when the first such
  /// byte arrives.
  bool feed(const net::Payload& data);
  bool feed(std::string_view data);

  bool has_error() const noexcept { return error_ != ParserError::kNone; }
  ParserError error() const noexcept { return error_; }

  /// Number of complete messages emitted so far.
  std::uint64_t messages_parsed() const noexcept { return parsed_; }

  /// Bytes buffered waiting for more input.
  std::size_t buffered_bytes() const noexcept {
    return head_buffer_.size() + body_received_;
  }

  void reset();

  /// Upper bound on the head (start line + headers) before the parser
  /// rejects the message.
  static constexpr std::size_t kMaxHeadBytes = 64 * 1024;

 private:
  enum class State { kHead, kBody, kError };

  /// `block`, when set, is the payload `data` lies in (body bytes may be
  /// kept by reference); null means the bytes must be copied.
  bool consume(std::string_view data, const net::Payload* block);
  void parse_head(std::string_view head);
  bool parse_start_line(std::string_view line);
  void append_body(std::string_view piece, const net::Payload* block);
  void emit_message();
  void fail(ParserError error);

  ParserKind kind_;
  State state_ = State::kHead;
  ParserError error_ = ParserError::kNone;
  /// Head bytes of a head split across chunks.
  std::string head_buffer_;
  /// The body so far: a view that grows over adjacent slices of one block,
  /// or (once `body_fill_` is set) an owned block of body_expected_ bytes.
  net::Payload body_;
  char* body_fill_ = nullptr;
  std::size_t body_received_ = 0;
  std::size_t body_expected_ = 0;
  HttpRequest request_;
  HttpResponse response_;
  std::uint64_t parsed_ = 0;
  RequestHandler on_request_;
  ResponseHandler on_response_;
};

}  // namespace meshnet::http
