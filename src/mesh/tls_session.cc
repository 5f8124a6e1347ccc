#include "mesh/tls_session.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace meshnet::mesh {

namespace {

// Big-endian fixed-width primitives. Times ride as two's-complement u64.

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u16(std::string& out, std::uint16_t v) {
  append_u8(out, static_cast<std::uint8_t>(v >> 8));
  append_u8(out, static_cast<std::uint8_t>(v));
}

void append_u24(std::string& out, std::uint32_t v) {
  append_u8(out, static_cast<std::uint8_t>(v >> 16));
  append_u8(out, static_cast<std::uint8_t>(v >> 8));
  append_u8(out, static_cast<std::uint8_t>(v));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    append_u8(out, static_cast<std::uint8_t>(v >> shift));
  }
}

/// Strict bounds-checked reader; any overrun poisons it and decode
/// returns nullopt.
struct Reader {
  std::string_view data;
  bool ok = true;

  std::uint8_t u8() {
    if (data.size() < 1) {
      ok = false;
      return 0;
    }
    const auto v = static_cast<std::uint8_t>(data[0]);
    data.remove_prefix(1);
    return v;
  }

  std::uint16_t u16() {
    const auto hi = u8();
    const auto lo = u8();
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | u8();
    return v;
  }

  std::string_view bytes(std::size_t n) {
    if (data.size() < n) {
      ok = false;
      return {};
    }
    const std::string_view v = data.substr(0, n);
    data.remove_prefix(n);
    return v;
  }

  /// Every byte consumed, nothing left over.
  bool done() const noexcept { return ok && data.empty(); }
};

sim::Time read_time(Reader& r) { return static_cast<sim::Time>(r.u64()); }

constexpr std::size_t kRecordHeaderBytes = 4;
constexpr std::size_t kTicketBytes = 24;
/// Bound on buffered 0-RTT records while a full handshake completes.
constexpr std::size_t kMaxEarlyRecords = 1024;

}  // namespace

bool is_known_tls_record_type(std::uint8_t type) noexcept {
  switch (static_cast<TlsRecordType>(type)) {
    case TlsRecordType::kClientHello:
    case TlsRecordType::kServerHello:
    case TlsRecordType::kFinished:
    case TlsRecordType::kAlert:
    case TlsRecordType::kAppData:
      return true;
  }
  return false;
}

std::string encode_tls_record(TlsRecordType type, std::string_view body) {
  assert(body.size() <= 0xFFFFFF && "record body exceeds u24 length");
  std::string out;
  out.reserve(kRecordHeaderBytes + body.size());
  append_u8(out, static_cast<std::uint8_t>(type));
  append_u24(out, static_cast<std::uint32_t>(body.size()));
  out.append(body);
  return out;
}

TlsRecordParser::TlsRecordParser(std::size_t max_body_bytes)
    : max_body_bytes_(max_body_bytes) {}

bool TlsRecordParser::feed(std::string_view data) {
  if (has_error()) return false;
  buffer_.append(data);
  while (buffer_.size() >= kRecordHeaderBytes) {
    const auto type = static_cast<std::uint8_t>(buffer_[0]);
    if (!is_known_tls_record_type(type)) {
      error_ = "unknown record type";
      return false;
    }
    const std::size_t length =
        (static_cast<std::size_t>(static_cast<std::uint8_t>(buffer_[1]))
         << 16) |
        (static_cast<std::size_t>(static_cast<std::uint8_t>(buffer_[2])) << 8) |
        static_cast<std::size_t>(static_cast<std::uint8_t>(buffer_[3]));
    if (length > max_body_bytes_) {
      error_ = "oversized record";
      return false;
    }
    if (buffer_.size() < kRecordHeaderBytes + length) break;
    // Move the record out before the callback: the handler may feed more
    // bytes (it never does today, but the codec should not care).
    const std::string record =
        buffer_.substr(kRecordHeaderBytes, length);
    buffer_.erase(0, kRecordHeaderBytes + length);
    if (on_record_) {
      on_record_(static_cast<TlsRecordType>(type), record);
      if (has_error()) return false;  // handler-induced reset + error
    }
  }
  return true;
}

void TlsRecordParser::reset() {
  buffer_.clear();
  error_.clear();
}

std::string encode_client_hello(const TlsClientHello& hello) {
  std::string out;
  append_u64(out, hello.cert_serial);
  append_u64(out, static_cast<std::uint64_t>(hello.cert_expires_at));
  const auto ticket_len = static_cast<std::uint16_t>(
      std::min<std::size_t>(hello.ticket.size(), 0xFFFF));
  append_u16(out, ticket_len);
  out.append(hello.ticket.data(), ticket_len);
  return out;
}

std::optional<TlsClientHello> decode_client_hello(std::string_view body) {
  Reader r{body};
  TlsClientHello hello;
  hello.cert_serial = r.u64();
  hello.cert_expires_at = read_time(r);
  const std::uint16_t ticket_len = r.u16();
  hello.ticket = std::string(r.bytes(ticket_len));
  if (!r.done()) return std::nullopt;
  return hello;
}

std::string encode_server_hello(const TlsServerHello& hello) {
  std::string out;
  append_u64(out, hello.cert_serial);
  append_u64(out, static_cast<std::uint64_t>(hello.cert_expires_at));
  append_u8(out, hello.resumed ? 1 : 0);
  const auto ticket_len = static_cast<std::uint16_t>(
      std::min<std::size_t>(hello.ticket.size(), 0xFFFF));
  append_u16(out, ticket_len);
  out.append(hello.ticket.data(), ticket_len);
  return out;
}

std::optional<TlsServerHello> decode_server_hello(std::string_view body) {
  Reader r{body};
  TlsServerHello hello;
  hello.cert_serial = r.u64();
  hello.cert_expires_at = read_time(r);
  const std::uint8_t resumed = r.u8();
  if (resumed > 1) return std::nullopt;
  hello.resumed = resumed == 1;
  const std::uint16_t ticket_len = r.u16();
  hello.ticket = std::string(r.bytes(ticket_len));
  if (!r.done()) return std::nullopt;
  return hello;
}

std::string encode_session_ticket(const TlsSessionTicket& ticket) {
  std::string out;
  out.reserve(kTicketBytes);
  append_u64(out, ticket.cert_serial);
  append_u64(out, static_cast<std::uint64_t>(ticket.issued_at));
  append_u64(out, ticket.nonce);
  return out;
}

std::optional<TlsSessionTicket> decode_session_ticket(std::string_view body) {
  if (body.size() != kTicketBytes) return std::nullopt;
  Reader r{body};
  TlsSessionTicket ticket;
  ticket.cert_serial = r.u64();
  ticket.issued_at = read_time(r);
  ticket.nonce = r.u64();
  if (!r.done()) return std::nullopt;
  return ticket;
}

// ---------------------------------------------------------------------------

void TlsSessionCache::put(const std::string& key, std::string ticket) {
  if (capacity_ == 0) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(ticket);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(ticket));
  index_.emplace(key, lru_.begin());
  evict_to_capacity();
}

std::string TlsSessionCache::get(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return {};
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void TlsSessionCache::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  evict_to_capacity();
}

void TlsSessionCache::evict_to_capacity() {
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    if (evictions_ != nullptr) evictions_->inc();
  }
}

TlsRuntime::TlsRuntime(obs::MetricRegistry* registry,
                       std::size_t cache_capacity)
    : cache_(cache_capacity) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricRegistry>();
    registry = owned_registry_.get();
  }
  metrics_.handshakes_full = &registry->counter("tls_handshakes_full_total");
  metrics_.handshakes_resumed =
      &registry->counter("tls_handshakes_resumed_total");
  metrics_.handshake_failures =
      &registry->counter("tls_handshake_failures_total");
  metrics_.tickets_issued = &registry->counter("tls_tickets_issued_total");
  metrics_.resumptions_rejected =
      &registry->counter("tls_resumptions_rejected_total");
  metrics_.session_cache_evictions =
      &registry->counter("tls_session_cache_evictions_total");
  metrics_.records_encrypted =
      &registry->counter("tls_records_encrypted_total");
  metrics_.records_decrypted =
      &registry->counter("tls_records_decrypted_total");
  metrics_.bytes_encrypted = &registry->counter("tls_bytes_encrypted_total");
  metrics_.bytes_decrypted = &registry->counter("tls_bytes_decrypted_total");
  metrics_.alerts_sent = &registry->counter("tls_alerts_total");
  metrics_.handshake_ns = &registry->histogram("tls_handshake_ns");
  cache_ = TlsSessionCache(cache_capacity, metrics_.session_cache_evictions);
}

// ---------------------------------------------------------------------------

TlsChannel::TlsChannel(sim::Simulator& sim, Role role, const TlsParams* params,
                       const Certificate* local_cert, TlsRuntime* runtime,
                       std::string peer_key)
    : sim_(sim),
      role_(role),
      params_(params),
      local_cert_(local_cert),
      runtime_(runtime),
      peer_key_(std::move(peer_key)),
      state_(role == Role::kClient ? State::kIdle : State::kWaitClientHello),
      record_parser_(kTlsMaxRecordBytes) {
  assert(params_ != nullptr && local_cert_ != nullptr && runtime_ != nullptr);
  record_parser_.set_on_record(
      [this](TlsRecordType type, std::string_view body) {
        on_record(type, body);
      });
}

TlsChannel::~TlsChannel() { cancel_timeout(); }

void TlsChannel::start() {
  handshake_start_ = sim_.now();
  auto self = shared_from_this();
  timeout_timer_ =
      sim_.schedule_after(kTlsHandshakeTimeout, [self] {
        self->timeout_timer_ = sim::kInvalidEventId;
        if (self->closed_ || self->established() || self->failed()) return;
        self->fail("tls handshake timeout", false);
      });
  if (role_ == Role::kClient) {
    TlsClientHello hello;
    hello.cert_serial = local_cert_->serial;
    hello.cert_expires_at = local_cert_->expires_at;
    if (params_->session_resumption && !peer_key_.empty()) {
      hello.ticket = runtime_->session_cache().get(peer_key_);
    }
    offered_ticket_ = !hello.ticket.empty();
    transition(State::kWaitServerHello);
    queue_wire(encode_tls_record(TlsRecordType::kClientHello,
                                 encode_client_hello(hello)),
               0);
  }
}

void TlsChannel::on_wire_data(std::string_view data) {
  if (closed_ || failed()) return;
  // The record handler can fail the channel, which schedules owner
  // callbacks; keep ourselves alive across the whole feed.
  auto self = shared_from_this();
  if (!record_parser_.feed(data) && !failed() && !closed_) {
    fail("tls record error: " + record_parser_.error(), true);
  }
}

void TlsChannel::send_app_data(std::string_view data) {
  if (closed_ || failed() || data.empty()) return;
  const bool zero_rtt = role_ == Role::kClient && offered_ticket_ &&
                        state_ == State::kWaitServerHello;
  if (established() || zero_rtt) {
    encrypt_and_send(data);
  } else {
    pending_app_.emplace_back(data);
  }
}

void TlsChannel::shutdown() {
  if (closed_) return;
  closed_ = true;
  cancel_timeout();
  send_wire_ = nullptr;
  on_plaintext_ = nullptr;
  on_established_ = nullptr;
  on_error_ = nullptr;
  state_observer_ = nullptr;
}

void TlsChannel::transition(State next) {
  state_ = next;
  if (state_observer_) state_observer_(next);
}

void TlsChannel::fail(const std::string& reason, bool send_alert) {
  if (closed_ || failed()) return;
  if (send_alert) {
    runtime_->metrics().alerts_sent->inc();
    queue_wire(encode_tls_record(TlsRecordType::kAlert, reason), 0);
  }
  error_ = reason;
  cancel_timeout();
  const bool pre_established = state_ != State::kEstablished;
  transition(State::kFailed);
  if (pre_established) runtime_->metrics().handshake_failures->inc();
  // Deliver the error through a zero-delay event, never re-entrantly
  // from inside a transport data callback (the owner aborts the
  // connection in response, which the transport does not tolerate
  // mid-delivery).
  auto self = shared_from_this();
  sim_.schedule_after(0, [self] {
    if (self->closed_) return;
    if (self->on_error_) self->on_error_(self->error_);
  });
}

void TlsChannel::on_record(TlsRecordType type, std::string_view body) {
  if (closed_ || failed()) return;
  switch (type) {
    case TlsRecordType::kClientHello:
      if (role_ != Role::kServer) {
        fail("unexpected client hello", true);
        return;
      }
      handle_client_hello(body);
      return;
    case TlsRecordType::kServerHello:
      if (role_ != Role::kClient) {
        fail("unexpected server hello", true);
        return;
      }
      handle_server_hello(body);
      return;
    case TlsRecordType::kFinished:
      handle_finished();
      return;
    case TlsRecordType::kAlert:
      fail("tls alert from peer: " + std::string(body), false);
      return;
    case TlsRecordType::kAppData:
      handle_app_data(body);
      return;
  }
  fail("unknown record type", true);
}

void TlsChannel::handle_client_hello(std::string_view body) {
  if (state_ != State::kWaitClientHello) {
    fail("client hello out of order", true);
    return;
  }
  const auto hello = decode_client_hello(body);
  if (!hello) {
    fail("malformed client hello", true);
    return;
  }
  const sim::Time now = sim_.now();
  if (local_cert_->serial == 0 || !local_cert_->valid_at(now)) {
    fail("server certificate invalid", true);
    return;
  }
  if (hello->cert_serial == 0 || hello->cert_expires_at <= now) {
    fail("peer certificate expired", true);
    return;
  }
  bool resumed = false;
  if (!hello->ticket.empty()) {
    bool accepted = false;
    if (params_->session_resumption) {
      const auto ticket = decode_session_ticket(hello->ticket);
      accepted = ticket.has_value() &&
                 ticket->cert_serial == local_cert_->serial &&
                 now - ticket->issued_at < kTlsTicketLifetime;
    }
    if (accepted) {
      resumed = true;
    } else {
      runtime_->metrics().resumptions_rejected->inc();
    }
  }
  TlsServerHello reply;
  reply.cert_serial = local_cert_->serial;
  reply.cert_expires_at = local_cert_->expires_at;
  reply.resumed = resumed;
  if (params_->session_resumption) {
    TlsSessionTicket ticket;
    ticket.cert_serial = local_cert_->serial;
    ticket.issued_at = now;
    ticket.nonce = runtime_->next_ticket_nonce();
    reply.ticket = encode_session_ticket(ticket);
    runtime_->metrics().tickets_issued->inc();
  }
  resumed_ = resumed;
  const sim::Duration cpu =
      resumed ? kTlsHandshakeCpuResumed : kTlsHandshakeCpuServer;
  queue_wire(encode_tls_record(TlsRecordType::kServerHello,
                               encode_server_hello(reply)),
             cpu, /*handshake_cpu=*/true);
  if (resumed) {
    become_established();
  } else {
    transition(State::kWaitFinished);
  }
}

void TlsChannel::handle_server_hello(std::string_view body) {
  if (state_ != State::kWaitServerHello) {
    fail("server hello out of order", true);
    return;
  }
  const auto hello = decode_server_hello(body);
  if (!hello) {
    fail("malformed server hello", true);
    return;
  }
  if (hello->cert_serial == 0 || hello->cert_expires_at <= sim_.now()) {
    fail("peer certificate expired", true);
    return;
  }
  resumed_ = hello->resumed;
  if (params_->session_resumption && !hello->ticket.empty() &&
      !peer_key_.empty()) {
    runtime_->session_cache().put(peer_key_, hello->ticket);
  }
  const sim::Duration cpu =
      resumed_ ? kTlsHandshakeCpuResumed : kTlsHandshakeCpuClient;
  queue_wire(encode_tls_record(TlsRecordType::kFinished, {}), cpu,
             /*handshake_cpu=*/true);
  become_established();
}

void TlsChannel::handle_finished() {
  if (role_ != Role::kServer) {
    fail("unexpected finished", true);
    return;
  }
  if (state_ == State::kWaitFinished) {
    become_established();
    return;
  }
  // A resumed server establishes on the ClientHello; the client's
  // Finished (it always sends one) arrives afterwards and is a no-op.
  if (established() && resumed_) return;
  fail("finished out of order", true);
}

void TlsChannel::handle_app_data(std::string_view body) {
  if (established()) {
    deliver_plaintext(std::string(body));
    return;
  }
  if (role_ == Role::kServer && state_ == State::kWaitFinished) {
    // 0-RTT data from a client whose ticket we rejected: queue it and
    // process after Finished (instead of modelling a replay).
    if (early_records_.size() >= kMaxEarlyRecords) {
      fail("early data overflow", true);
      return;
    }
    early_records_.emplace_back(body);
    return;
  }
  fail("app data before handshake", true);
}

void TlsChannel::become_established() {
  cancel_timeout();
  transition(State::kEstablished);
  TlsMetrics& metrics = runtime_->metrics();
  if (role_ == Role::kServer) {
    (resumed_ ? metrics.handshakes_resumed : metrics.handshakes_full)->inc();
  } else {
    metrics.handshake_ns->record(
        static_cast<std::uint64_t>(sim_.now() - handshake_start_));
  }
  if (on_established_) on_established_(resumed_);
  while (!pending_app_.empty() && !failed() && !closed_) {
    const std::string data = std::move(pending_app_.front());
    pending_app_.pop_front();
    encrypt_and_send(data);
  }
  while (!early_records_.empty() && !failed() && !closed_) {
    std::string body = std::move(early_records_.front());
    early_records_.pop_front();
    deliver_plaintext(std::move(body));
  }
}

void TlsChannel::encrypt_and_send(std::string_view data) {
  TlsMetrics& metrics = runtime_->metrics();
  std::string_view rest = data;
  while (!rest.empty()) {
    const std::size_t n = std::min(rest.size(), kTlsMaxRecordBytes);
    const std::string_view chunk = rest.substr(0, n);
    rest.remove_prefix(n);
    metrics.records_encrypted->inc();
    metrics.bytes_encrypted->inc(n);
    queue_wire(encode_tls_record(TlsRecordType::kAppData, chunk),
               aead_cost(n));
  }
}

void TlsChannel::deliver_plaintext(std::string body) {
  TlsMetrics& metrics = runtime_->metrics();
  metrics.records_decrypted->inc();
  metrics.bytes_decrypted->inc(body.size());
  const sim::Duration cost = aead_cost(body.size());
  const sim::Time now = sim_.now();
  const sim::Time ready = std::max(now, rx_busy_until_) + cost;
  rx_busy_until_ = ready;
  auto self = shared_from_this();
  sim_.schedule_at(ready, [self, b = std::move(body)] {
    if (self->closed_ || self->failed()) return;
    if (self->on_plaintext_) self->on_plaintext_(b);
  });
}

sim::Duration TlsChannel::aead_cost(std::size_t body_bytes) const {
  return kTlsAeadPerRecord +
         kTlsAeadPerKb * static_cast<sim::Duration>(body_bytes) / 1024;
}

void TlsChannel::queue_wire(std::string bytes, sim::Duration cost,
                            bool handshake_cpu) {
  const sim::Time now = sim_.now();
  sim::Time ready;
  if (handshake_cpu && cost > 0) {
    // Asymmetric handshake crypto serializes on the owning sidecar's
    // crypto core: a reconnect wave's handshakes queue behind each
    // other, which is what makes a mesh-wide storm expensive.
    ready = std::max(runtime_->charge_handshake(now, cost), tx_busy_until_);
  } else {
    ready = std::max(now, tx_busy_until_) + cost;
  }
  tx_busy_until_ = ready;
  if (ready <= now) {
    if (send_wire_) send_wire_(std::move(bytes));
    return;
  }
  auto self = shared_from_this();
  sim_.schedule_at(ready, [self, b = std::move(bytes)] {
    if (self->closed_) return;
    if (self->send_wire_) self->send_wire_(b);
  });
}

void TlsChannel::cancel_timeout() {
  if (timeout_timer_ != sim::kInvalidEventId) {
    sim_.cancel(timeout_timer_);
    timeout_timer_ = sim::kInvalidEventId;
  }
}

std::string_view tls_state_name(TlsChannel::State state) noexcept {
  switch (state) {
    case TlsChannel::State::kIdle:
      return "idle";
    case TlsChannel::State::kWaitServerHello:
      return "wait-server-hello";
    case TlsChannel::State::kWaitClientHello:
      return "wait-client-hello";
    case TlsChannel::State::kWaitFinished:
      return "wait-finished";
    case TlsChannel::State::kEstablished:
      return "established";
    case TlsChannel::State::kFailed:
      return "failed";
  }
  return "unknown";
}

}  // namespace meshnet::mesh
