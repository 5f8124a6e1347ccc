#pragma once

// HTTP/1.1-style request and response messages. Bodies are immutable
// views of pooled message bytes (net::Payload); the codec (codec.h) turns
// messages into wire bytes and back.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "http/header_map.h"
#include "net/payload.h"

namespace meshnet::http {

/// A message body: an immutable view of a refcounted pooled block. Copies
/// share the block (a retry-safe request copy costs no body bytes), and a
/// parsed body is usually a slice of the sender's wire block. Like
/// payloads, bodies must not cross threads.
class Body {
 public:
  Body() noexcept = default;
  explicit Body(net::Payload bytes) noexcept : bytes_(std::move(bytes)) {}

  /// Copies `text` (a string_view, std::string or C string) into a fresh
  /// block.
  Body& operator=(std::string_view text) {
    bytes_ = net::Payload::copy_of(text);
    return *this;
  }

  /// `count` copies of `fill`.
  void assign(std::size_t count, char fill) {
    bytes_ = net::Payload::filled(count, fill);
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  bool empty() const noexcept { return bytes_.empty(); }
  const char* data() const noexcept { return bytes_.data(); }
  std::string_view view() const noexcept { return bytes_.view(); }
  /// The pooled bytes themselves (sending them shares the block).
  const net::Payload& payload() const noexcept { return bytes_; }

  friend bool operator==(const Body& a, const Body& b) noexcept {
    return a.view() == b.view();
  }
  friend bool operator==(const Body& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const Body& body);

 private:
  net::Payload bytes_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  HeaderMap headers;
  Body body;

  /// Convenience accessors for the headers the mesh manipulates. The id
  /// is a view into `headers` (valid until they next change).
  std::string_view request_id() const noexcept {
    return headers.get_or(headers::Id::kRequestId, "");
  }
  void set_request_id(std::string_view id) {
    headers.set(headers::Id::kRequestId, id);
  }
};

struct HttpResponse {
  int status = 200;
  HeaderMap headers;
  Body body;

  bool ok() const noexcept { return status >= 200 && status < 300; }
};

/// Reason phrases for the subset of statuses the mesh generates.
std::string_view status_text(int status) noexcept;

/// Fresh unique request id ("req-<counter>-<hex>"). Deterministic across a
/// run given the same call sequence; the counter is thread-local, so
/// simulations running concurrently on different threads (sweep points)
/// draw the same sequences they would single-threaded.
std::string generate_request_id();

/// Resets the calling thread's request-id counter (experiments call this
/// at start so repeated runs in one process produce identical ids).
void reset_request_id_counter();

}  // namespace meshnet::http
