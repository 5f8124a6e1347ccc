#include "app/http_server.h"

#include <utility>

namespace meshnet::app {

SimpleHttpServer::SimpleHttpServer(sim::Simulator& sim,
                                   transport::TransportHost& host,
                                   net::Port port, Handler handler)
    : sim_(sim), handler_(std::move(handler)) {
  host.listen(port, [this](transport::Connection& conn) {
    auto session = std::make_unique<Session>();
    Session* raw = session.get();
    raw->id = next_id_++;
    raw->conn = &conn;
    raw->parser =
        std::make_unique<http::HttpParser>(http::ParserKind::kRequest);
    const std::uint64_t id = raw->id;
    raw->parser->set_on_request([this, id](http::HttpRequest request) {
      on_request(id, std::move(request));
    });
    conn.set_on_data([this, raw, id](const net::Payload& data) {
      if (!raw->parser->feed(data)) {
        sim_.schedule_after(0, [this, id] {
          const auto it = sessions_.find(id);
          if (it != sessions_.end()) it->second->conn->abort();
        });
      }
    });
    conn.set_on_closed([this, id] { sessions_.erase(id); });
    sessions_.emplace(id, std::move(session));
  });
}

void SimpleHttpServer::on_request(std::uint64_t session_id,
                                  http::HttpRequest request) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second->pending.push_back(std::move(request));
  pump(*it->second);
}

void SimpleHttpServer::pump(Session& session) {
  if (session.busy || session.pending.empty()) return;
  session.busy = true;
  http::HttpRequest request = session.pending.take_front();
  const std::uint64_t id = session.id;
  ++served_;
  handler_(std::move(request), [this, id](http::HttpResponse response) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;  // client went away
    Session& s = *it->second;
    http::WirePieces wire = http::encode_response_pieces(response);
    s.conn->send(std::move(wire.head), std::move(wire.body));
    s.busy = false;
    pump(s);
  });
}

}  // namespace meshnet::app
