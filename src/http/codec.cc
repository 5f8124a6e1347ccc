#include "http/codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/strings.h"

namespace meshnet::http {

namespace {
constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";
constexpr std::string_view kHttpVersion = "HTTP/1.1";

/// Bodies are pooled blocks, whose sizes are 32-bit.
constexpr std::uint64_t kMaxBodyBytes =
    std::numeric_limits<std::uint32_t>::max();

/// The calling thread's head scratch, emptied: heads are built here so
/// steady-state encoding allocates nothing but pooled wire blocks.
std::string& head_scratch() {
  thread_local std::string scratch;
  scratch.clear();
  return scratch;
}

void append_headers(std::string& out, const HeaderMap& headers,
                    std::size_t body_size) {
  const auto& entries = headers.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (headers.id_at(i) == headers::Id::kContentLength) {
      continue;  // always emit an accurate one below
    }
    const auto& [name, value] = entries[i];
    out.append(name).append(": ").append(value).append(kCrlf);
  }
  out.append(headers::kContentLength)
      .append(": ")
      .append(std::to_string(body_size))
      .append(kCrlf);
  out.append(kCrlf);
}

/// The start line and headers, serialized into the head scratch.
std::string& request_head(const HttpRequest& request) {
  std::string& head = head_scratch();
  head.append(request.method)
      .append(" ")
      .append(request.path)
      .append(" ")
      .append(kHttpVersion)
      .append(kCrlf);
  append_headers(head, request.headers, request.body.size());
  return head;
}

/// The status line and headers, serialized into the head scratch.
std::string& response_head(const HttpResponse& response) {
  std::string& head = head_scratch();
  head.append(kHttpVersion)
      .append(" ")
      .append(std::to_string(response.status))
      .append(" ")
      .append(status_text(response.status))
      .append(kCrlf);
  append_headers(head, response.headers, response.body.size());
  return head;
}
}  // namespace

WirePieces encode_request_pieces(const HttpRequest& request) {
  return {join(request_head(request), {}), request.body.payload()};
}

WirePieces encode_response_pieces(const HttpResponse& response) {
  return {join(response_head(response), {}), response.body.payload()};
}

net::Payload encode_request(const HttpRequest& request) {
  return join(request_head(request), request.body.view());
}

net::Payload encode_response(const HttpResponse& response) {
  return join(response_head(response), response.body.view());
}

net::Payload join(std::string_view head, std::string_view body) {
  char* out = nullptr;
  net::Payload wire = net::Payload::uninitialized(head.size() + body.size(),
                                                  &out);
  std::memcpy(out, head.data(), head.size());
  if (!body.empty()) std::memcpy(out + head.size(), body.data(), body.size());
  net::count_bytes_copied(body.size());
  return wire;
}

std::string serialize_request(const HttpRequest& request) {
  return std::string(encode_request(request).view());
}

std::string serialize_response(const HttpResponse& response) {
  return std::string(encode_response(response).view());
}

HttpParser::HttpParser(ParserKind kind) : kind_(kind) {}

void HttpParser::reset() {
  state_ = State::kHead;
  error_ = ParserError::kNone;
  head_buffer_.clear();
  body_.reset();
  body_fill_ = nullptr;
  body_received_ = 0;
  body_expected_ = 0;
  request_ = HttpRequest{};
  response_ = HttpResponse{};
}

void HttpParser::fail(ParserError error) {
  state_ = State::kError;
  error_ = error;
}

bool HttpParser::feed(const net::Payload& data) {
  return consume(data.view(), &data);
}

bool HttpParser::feed(std::string_view data) { return consume(data, nullptr); }

bool HttpParser::consume(std::string_view data, const net::Payload* block) {
  // Each pass consumes one head or one body piece; a pipelined remainder
  // simply goes round again.
  while (!data.empty() && state_ != State::kError) {
    if (state_ == State::kBody) {
      const std::size_t take =
          std::min(body_expected_ - body_received_, data.size());
      append_body(data.substr(0, take), block);
      data.remove_prefix(take);
      if (body_received_ == body_expected_) emit_message();
      continue;
    }
    std::string_view head;
    if (head_buffer_.empty()) {
      // Common case: the whole head is in this chunk; parse it in place.
      const std::size_t end = data.find(kHeadEnd);
      if (end == std::string_view::npos) {
        head_buffer_.assign(data);
        data = {};
        if (head_buffer_.size() > kMaxHeadBytes) {
          fail(ParserError::kHeadTooLarge);
        }
        continue;
      }
      head = data.substr(0, end);
      data.remove_prefix(end + kHeadEnd.size());
    } else {
      // The terminator may straddle chunks: rescan the buffer's tail.
      const std::size_t held = head_buffer_.size();
      const std::size_t scan_from = held < 3 ? 0 : held - 3;
      head_buffer_.append(data);
      const std::size_t end = head_buffer_.find(kHeadEnd, scan_from);
      if (end == std::string::npos) {
        data = {};
        if (head_buffer_.size() > kMaxHeadBytes) {
          fail(ParserError::kHeadTooLarge);
        }
        continue;
      }
      // Anything after the head belongs to the body (or the next message).
      data.remove_prefix(end + kHeadEnd.size() - held);
      head_buffer_.resize(end);
      head = head_buffer_;
    }
    parse_head(head);
    head_buffer_.clear();
    if (state_ == State::kError) break;
    if (body_expected_ == 0) {
      emit_message();
    } else {
      state_ = State::kBody;
    }
  }
  return state_ != State::kError;
}

void HttpParser::parse_head(std::string_view head) {
  // Split the head into lines; the first is the start line.
  const std::size_t first_eol = head.find("\r\n");
  const std::string_view start_line =
      first_eol == std::string_view::npos ? head : head.substr(0, first_eol);
  if (!parse_start_line(start_line)) return;

  HeaderMap& headers =
      kind_ == ParserKind::kRequest ? request_.headers : response_.headers;
  headers = HeaderMap{};
  std::string_view remaining = first_eol == std::string_view::npos
                                   ? std::string_view{}
                                   : head.substr(first_eol + 2);
  while (!remaining.empty()) {
    std::size_t eol = remaining.find("\r\n");
    std::string_view line =
        eol == std::string_view::npos ? remaining : remaining.substr(0, eol);
    remaining = eol == std::string_view::npos
                    ? std::string_view{}
                    : remaining.substr(eol + 2);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      fail(ParserError::kBadHeader);
      return;
    }
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (name.empty()) {
      fail(ParserError::kBadHeader);
      return;
    }
    headers.add(name, value);
  }

  body_expected_ = 0;
  if (const auto cl = headers.get(headers::Id::kContentLength)) {
    const auto parsed = util::parse_u64(util::trim(*cl));
    if (!parsed) {
      fail(ParserError::kBadContentLength);
      return;
    }
    if (*parsed > kMaxBodyBytes) {
      fail(ParserError::kBodyTooLarge);
      return;
    }
    body_expected_ = static_cast<std::size_t>(*parsed);
  }
}

void HttpParser::append_body(std::string_view piece,
                             const net::Payload* block) {
  if (body_fill_ == nullptr && block != nullptr) {
    net::Payload slice = block->slice(
        static_cast<std::size_t>(piece.data() - block->data()), piece.size());
    if (body_received_ == 0) {
      body_ = std::move(slice);
      body_received_ = piece.size();
      return;
    }
    if (body_.continued_by(slice)) {
      body_.extend(slice);
      body_received_ += piece.size();
      return;
    }
  }
  if (body_fill_ == nullptr) {
    // The first byte that cannot be kept by reference: move to an owned
    // block sized by Content-Length, keeping the bytes aliased so far.
    net::Payload owned =
        net::Payload::uninitialized(body_expected_, &body_fill_);
    if (body_received_ > 0) {
      std::memcpy(body_fill_, body_.data(), body_received_);
      net::count_bytes_copied(body_received_);
    }
    body_ = std::move(owned);
  }
  std::memcpy(body_fill_ + body_received_, piece.data(), piece.size());
  net::count_bytes_copied(piece.size());
  body_received_ += piece.size();
}

bool HttpParser::parse_start_line(std::string_view line) {
  const auto parts = util::split(line, ' ');
  if (kind_ == ParserKind::kRequest) {
    // METHOD SP PATH SP VERSION
    if (parts.size() < 3 || parts[0].empty() || parts[1].empty() ||
        !util::starts_with(parts[2], "HTTP/")) {
      fail(ParserError::kBadStartLine);
      return false;
    }
    request_ = HttpRequest{};
    request_.method = std::string(parts[0]);
    request_.path = std::string(parts[1]);
    return true;
  }
  // VERSION SP STATUS SP REASON...
  if (parts.size() < 2 || !util::starts_with(parts[0], "HTTP/")) {
    fail(ParserError::kBadStartLine);
    return false;
  }
  const auto status = util::parse_u64(parts[1]);
  if (!status || *status < 100 || *status > 599) {
    fail(ParserError::kBadStartLine);
    return false;
  }
  response_ = HttpResponse{};
  response_.status = static_cast<int>(*status);
  return true;
}

void HttpParser::emit_message() {
  ++parsed_;
  Body body(std::move(body_));  // leaves body_ empty
  body_fill_ = nullptr;
  body_received_ = 0;
  body_expected_ = 0;
  state_ = State::kHead;
  if (kind_ == ParserKind::kRequest) {
    request_.body = std::move(body);
    if (on_request_) on_request_(std::move(request_));
    request_ = HttpRequest{};
  } else {
    response_.body = std::move(body);
    if (on_response_) on_response_(std::move(response_));
    response_ = HttpResponse{};
  }
}

}  // namespace meshnet::http
