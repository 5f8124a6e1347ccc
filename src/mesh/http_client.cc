#include "mesh/http_client.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace meshnet::mesh {

HttpClientPool::HttpClientPool(sim::Simulator& sim,
                               transport::TransportHost& host,
                               net::SocketAddress remote, Options options,
                               std::string name)
    : sim_(sim),
      host_(host),
      remote_(remote),
      options_(options),
      name_(std::move(name)) {}

HttpClientPool::~HttpClientPool() {
  // Abort every live connection so the transport host does not deliver
  // into freed slots.
  for (auto& slot : slots_) {
    if (slot->tls != nullptr) slot->tls->shutdown();
    if (slot->conn != nullptr && !slot->conn->closed()) {
      slot->conn->set_on_closed(nullptr);
      slot->conn->set_on_data(nullptr);
      slot->conn->abort();
    }
  }
}

HttpClientPool::RequestId HttpClientPool::request(http::HttpRequest request,
                                                  ResponseHandler handler) {
  const RequestId id = next_id_++;
  Pending pending;
  pending.id = id;
  pending.request = std::move(request);
  pending.handler = std::move(handler);
  queue_.push_back(std::move(pending));
  dispatch();
  return id;
}

bool HttpClientPool::cancel(RequestId id) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.id == id; });
  if (it != queue_.end()) {
    queue_.erase(it);
    return true;
  }
  for (auto& slot : slots_) {
    if (slot->busy && slot->request_id == id) {
      // The connection's stream is now poisoned (a response may arrive for
      // a request nobody is waiting on); abort it.
      slot->handler = nullptr;
      slot->busy = false;
      --active_;
      if (slot->tls != nullptr) slot->tls->shutdown();
      if (slot->conn != nullptr) {
        slot->conn->set_on_closed(nullptr);
        slot->conn->set_on_data(nullptr);
        slot->conn->abort();
      }
      remove_slot(*slot);
      dispatch();
      return true;
    }
  }
  return false;
}

std::size_t HttpClientPool::idle_connections() const noexcept {
  std::size_t idle = 0;
  for (const auto& slot : slots_) {
    if (!slot->busy) ++idle;
  }
  return idle;
}

HttpClientPool::Slot* HttpClientPool::find_idle() {
  for (auto& slot : slots_) {
    if (!slot->busy) return slot.get();
  }
  return nullptr;
}

HttpClientPool::Slot* HttpClientPool::create_slot() {
  if (slots_.size() >= options_.max_connections) return nullptr;
  auto slot = std::make_unique<Slot>();
  Slot* raw = slot.get();
  raw->parser = std::make_unique<http::HttpParser>(http::ParserKind::kResponse);
  raw->parser->set_on_response([this, raw](http::HttpResponse response) {
    on_response(*raw, std::move(response));
  });
  transport::Connection& conn = host_.connect(remote_, options_.connection);
  raw->conn = &conn;
  transport::Connection* conn_ptr = &conn;
  if (options_.tls.enabled) {
    auto channel = std::make_shared<TlsChannel>(
        sim_, TlsChannel::Role::kClient, options_.tls.params,
        options_.tls.local_cert, options_.tls.runtime, remote_.to_string());
    raw->tls = channel;
    channel->set_send_wire([conn_ptr](std::string bytes) {
      if (!conn_ptr->closed()) conn_ptr->send(bytes);
    });
    channel->set_on_plaintext([raw](std::string_view data) {
      if (!raw->parser->feed(data)) {
        MESHNET_WARN() << "http client: response parse error";
      }
    });
    // Delivered through a zero-delay event, so aborting here is safe.
    channel->set_on_error([this, raw, conn_ptr](const std::string& reason) {
      raw->close_reason = "tls handshake failed: " + reason;
      if (!conn_ptr->closed()) {
        conn_ptr->abort();
      } else {
        on_slot_closed(conn_ptr);
      }
    });
    conn.set_on_data([channel](const net::Payload& data) {
      channel->on_wire_data(data);
    });
    channel->start();
  } else {
    conn.set_on_data([raw](const net::Payload& data) {
      if (!raw->parser->feed(data)) {
        MESHNET_WARN() << "http client: response parse error";
      }
    });
  }
  conn.set_on_closed([this, conn_ptr](bool /*graceful*/) {
    on_slot_closed(conn_ptr);
  });
  ++created_;
  slots_.push_back(std::move(slot));
  if (options_.on_connection_created) options_.on_connection_created(conn);
  return raw;
}

void HttpClientPool::assign(Slot& slot, Pending pending) {
  slot.busy = true;
  slot.request_id = pending.id;
  slot.handler = std::move(pending.handler);
  ++active_;
  if (slot.tls != nullptr) {
    slot.tls->send_app_data(http::encode_request(pending.request));
  } else {
    http::WirePieces wire = http::encode_request_pieces(pending.request);
    slot.conn->send(std::move(wire.head), std::move(wire.body));
  }
}

void HttpClientPool::dispatch() {
  if (dispatching_) return;
  dispatching_ = true;
  while (!queue_.empty()) {
    Slot* slot = find_idle();
    if (slot == nullptr) slot = create_slot();
    if (slot == nullptr) break;  // at the connection cap; stay queued
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    assign(*slot, std::move(pending));
  }
  dispatching_ = false;
}

void HttpClientPool::on_response(Slot& slot, http::HttpResponse response) {
  if (!slot.busy) {
    MESHNET_WARN() << "http client: unexpected response on idle connection";
    return;
  }
  ResponseHandler handler = std::move(slot.handler);
  slot.handler = nullptr;
  slot.busy = false;
  slot.request_id = 0;
  --active_;
  if (handler) handler(std::move(response), "");
  dispatch();
}

void HttpClientPool::on_slot_closed(transport::Connection* conn) {
  const auto it = std::find_if(
      slots_.begin(), slots_.end(),
      [&](const std::unique_ptr<Slot>& s) { return s->conn == conn; });
  if (it == slots_.end()) return;
  Slot& slot = **it;
  ResponseHandler handler;
  if (slot.busy) {
    ++failures_;
    handler = std::move(slot.handler);
    slot.busy = false;
    --active_;
  }
  std::string reason = slot.close_reason.empty() ? "upstream connection reset"
                                                 : std::move(slot.close_reason);
  if (slot.tls != nullptr) slot.tls->shutdown();
  slots_.erase(it);
  if (handler) handler(std::nullopt, std::move(reason));
  dispatch();
}

void HttpClientPool::remove_slot(const Slot& slot) {
  const auto it = std::find_if(
      slots_.begin(), slots_.end(),
      [&](const std::unique_ptr<Slot>& s) { return s.get() == &slot; });
  if (it != slots_.end()) {
    if ((*it)->tls != nullptr) (*it)->tls->shutdown();
    slots_.erase(it);
  }
}

}  // namespace meshnet::mesh
