#include "transport/connection.h"

#include <algorithm>
#include <utility>

#include "transport/transport_host.h"

namespace meshnet::transport {

std::string_view conn_state_name(ConnState state) noexcept {
  switch (state) {
    case ConnState::kSynSent:
      return "SYN_SENT";
    case ConnState::kSynReceived:
      return "SYN_RECEIVED";
    case ConnState::kEstablished:
      return "ESTABLISHED";
    case ConnState::kClosed:
      return "CLOSED";
  }
  return "?";
}

Connection::Connection(TransportHost& host, net::FlowKey flow, bool is_client,
                       ConnectionOptions options)
    : host_(host),
      flow_(flow),
      is_client_(is_client),
      options_(options),
      state_(is_client ? ConnState::kSynSent : ConnState::kSynReceived),
      cc_(make_controller(options.cc, options.mss)),
      rto_(kInitialRto),
      rto_timer_(host.sim()) {}

void Connection::start_connect() {
  send_control(net::kFlagSyn, 0);
  arm_rto();
}

void Connection::send(net::Payload head, net::Payload body) {
  const std::size_t boundary = head.size();
  const std::size_t total = boundary + body.size();
  if (state_ == ConnState::kClosed || total == 0) return;
  stats_.bytes_sent += total;
  host_.mutable_stats().bytes_sent += total;
  std::size_t offset = 0;
  while (offset < total) {
    const std::size_t len =
        std::min<std::size_t>(options_.mss, total - offset);
    const std::size_t end = offset + len;
    Segment seg;
    seg.seq = next_seq_;
    if (end <= boundary) {
      seg.bytes.payload = head.slice(offset, len);
    } else if (offset >= boundary) {
      seg.bytes.payload = body.slice(offset - boundary, len);
    } else {
      seg.bytes.payload = head.slice(offset, boundary - offset);
      seg.bytes.tail = body.slice(0, end - boundary);
    }
    next_seq_ += len;
    unsent_bytes_ += len;
    segments_.push_back(std::move(seg));
    offset = end;
  }
  if (state_ == ConnState::kEstablished) maybe_send();
}

void Connection::send(std::string_view data) {
  send(net::Payload::copy_of(data));
}

void Connection::abort() {
  if (state_ == ConnState::kClosed) return;
  send_control(net::kFlagRst, next_seq_);
  become_closed();
}

void Connection::enter_established() {
  state_ = ConnState::kEstablished;
  rto_backoff_ = 0;
  if (on_connected_) on_connected_();
  maybe_send();
}

void Connection::maybe_send() {
  while (send_cursor_ < segments_.size() &&
         in_flight_bytes_ + segments_[send_cursor_].length() <= cc_->cwnd()) {
    Segment& seg = segments_[send_cursor_];
    unsent_bytes_ -= seg.length();
    // Segments an RTO sent back behind the cursor (go-back-N) are
    // retransmissions; fresh segments are not.
    transmit_segment(seg, /*is_retransmit=*/seg.retransmitted);
    in_flight_bytes_ += seg.length();
    ++send_cursor_;
  }
  if (send_cursor_ > 0) arm_rto();
}

void Connection::transmit_segment(Segment& segment, bool is_retransmit) {
  segment.sent_at = host_.now();
  segment.retransmitted = segment.retransmitted || is_retransmit;
  net::Packet p;
  p.flow = flow_;
  p.seq = segment.seq;
  p.ack = rcv_next_;
  p.flags = net::kFlagAck;
  p.dscp = options_.dscp;
  p.payload = segment.bytes.payload;
  p.payload_tail = segment.bytes.tail;
  p.sent_at = host_.now();
  ++stats_.segments_sent;
  ++host_.mutable_stats().segments_sent;
  if (is_retransmit) {
    ++stats_.retransmits;
    ++host_.mutable_stats().retransmits;
  }
  host_.send_packet(std::move(p));
}

void Connection::send_control(std::uint8_t flags, std::uint64_t seq) {
  net::Packet p;
  p.flow = flow_;
  p.seq = seq;
  p.ack = rcv_next_;
  p.flags = flags;
  p.dscp = options_.dscp;
  if ((flags & net::kFlagSyn) != 0) p.mss_option = options_.mss;
  p.sent_at = host_.now();
  host_.send_packet(std::move(p));
}

void Connection::send_ack() { send_control(net::kFlagAck, next_seq_); }

void Connection::handle_packet(const net::Packet& packet) {
  if (state_ == ConnState::kClosed) return;

  if (packet.has(net::kFlagRst)) {
    become_closed();
    return;
  }

  if (packet.has(net::kFlagSyn)) {
    if (is_client_) {
      // SYN|ACK from the server completes our handshake.
      if (state_ == ConnState::kSynSent) {
        rto_timer_.disarm();
        send_ack();
        enter_established();
      }
    } else {
      // First or duplicate SYN: (re)send SYN|ACK.
      send_control(net::kFlagSyn | net::kFlagAck, 0);
    }
    return;
  }

  if (!is_client_ && state_ == ConnState::kSynReceived) {
    // Any non-SYN packet from the client means our SYN|ACK arrived.
    enter_established();
  }

  if (packet.payload_size() > 0) {
    handle_data(packet);
  }
  if (packet.has(net::kFlagAck)) {
    handle_ack(packet);
  }
}

void Connection::handle_data(const net::Packet& packet) {
  const std::uint64_t seq = packet.seq;
  const std::uint32_t len = packet.payload_size();
  if (seq + len <= rcv_next_) {
    // Entire segment is old news; re-ACK so the sender can advance.
    send_ack();
    return;
  }
  if (seq > rcv_next_) {
    // Sorted insert; a seq already held keeps its first copy. Gaps fill
    // in order, so the search almost always ends at the back.
    std::size_t at = out_of_order_.size();
    while (at > 0 && out_of_order_[at - 1].seq > seq) --at;
    if (at == 0 || out_of_order_[at - 1].seq != seq) {
      out_of_order_.insert(
          at, OutOfOrder{seq, Slices{packet.payload, packet.payload_tail}});
    }
    send_ack();  // duplicate ACK signals the gap
    return;
  }
  // In-order (possibly partially overlapping) delivery.
  deliver(packet.payload, packet.payload_tail,
          static_cast<std::size_t>(rcv_next_ - seq));

  // Drain any now-contiguous out-of-order segments.
  while (!out_of_order_.empty() && out_of_order_.front().seq <= rcv_next_) {
    const OutOfOrder next = out_of_order_.take_front();
    if (next.seq + next.bytes.size() > rcv_next_) {
      deliver(next.bytes.payload, next.bytes.tail,
              static_cast<std::size_t>(rcv_next_ - next.seq));
    }
  }
  send_ack();
}

void Connection::deliver(const net::Payload& payload, const net::Payload& tail,
                         std::size_t skip) {
  for (const net::Payload* piece : {&payload, &tail}) {
    if (skip >= piece->size()) {
      skip -= piece->size();
    } else if (skip == 0) {
      deliver(*piece);
    } else {
      deliver(piece->slice(skip, piece->size() - skip));
      skip = 0;
    }
  }
}

void Connection::deliver(const net::Payload& data) {
  rcv_next_ += data.size();
  stats_.bytes_received += data.size();
  host_.mutable_stats().bytes_received += data.size();
  if (on_data_) on_data_(data);
}

void Connection::handle_ack(const net::Packet& packet) {
  const std::uint64_t ack = packet.ack;

  if (ack > snd_una_) {
    // Fresh cumulative ACK.
    dup_acks_ = 0;
    std::uint64_t acked_bytes = 0;
    sim::Duration rtt_sample = 0;
    // Pop every segment the ACK covers. Segments an RTO parked behind
    // the cursor (go-back-N) may be covered too (the receiver held them
    // out of order); sending them again would corrupt the in-flight
    // accounting below snd_una.
    while (!segments_.empty() && segments_.front().end() <= ack) {
      const Segment& seg = segments_.front();
      if (send_cursor_ > 0) {
        acked_bytes += seg.length();
        if (!seg.retransmitted) {
          rtt_sample = host_.now() - seg.sent_at;  // Karn's algorithm
        }
        --send_cursor_;
      } else {
        unsent_bytes_ -= seg.length();
      }
      segments_.pop_front();
    }
    in_flight_bytes_ -= acked_bytes;
    stats_.bytes_acked += acked_bytes;
    snd_una_ = std::max(snd_una_, ack);
    if (rtt_sample > 0) update_rtt(rtt_sample);
    rto_backoff_ = 0;

    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;
      } else if (send_cursor_ > 0) {
        // NewReno partial ACK: the ack advanced but not past the recovery
        // point, so the next unacked segment was also lost — retransmit it
        // now instead of stalling until the RTO.
        transmit_segment(segments_.front(), /*is_retransmit=*/true);
      }
    }
    if (acked_bytes > 0 && !in_recovery_) {
      cc_->on_ack(acked_bytes, rtt_sample, host_.now());
    }

    if (send_cursor_ == 0) {
      rto_timer_.disarm();
    } else {
      arm_rto();
    }
    maybe_send();
  } else if (ack == snd_una_ && send_cursor_ > 0 &&
             packet.payload_size() == 0) {
    // Duplicate ACK.
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      in_recovery_ = true;
      recover_ = next_seq_;
      cc_->on_loss(host_.now());
      ++stats_.fast_retransmits;
      ++host_.mutable_stats().fast_retransmits;
      transmit_segment(segments_.front(), /*is_retransmit=*/true);
      arm_rto();
    }
  }
}

void Connection::arm_rto() {
  sim::Duration timeout = rto_;
  for (int i = 0; i < rto_backoff_; ++i) {
    timeout = std::min(timeout * 2, kMaxRto);
  }
  rto_timer_.arm_after(timeout, [this] { on_rto_fired(); });
}

void Connection::on_rto_fired() {
  if (state_ == ConnState::kClosed) return;
  ++stats_.timeouts;
  ++host_.mutable_stats().timeouts;
  ++rto_backoff_;
  if (rto_backoff_ > kMaxRtoBackoffs) {
    // Peer unreachable; give up.
    become_closed();
    return;
  }
  if (state_ == ConnState::kSynSent) {
    send_control(net::kFlagSyn, 0);
    arm_rto();
    return;
  }
  if (send_cursor_ > 0) {
    cc_->on_timeout(host_.now());
    in_recovery_ = false;
    dup_acks_ = 0;
    // Go-back-N: an RTO means the whole outstanding window is presumed
    // lost (or its ACKs are). Move the cursor back to the front and
    // restart from snd_una under the collapsed window — retransmission
    // then proceeds ACK-clocked at slow-start pace instead of one segment
    // per timeout.
    for (std::size_t i = 0; i < send_cursor_; ++i) {
      segments_[i].retransmitted = true;  // Karn: no RTT samples from these
      unsent_bytes_ += segments_[i].length();
    }
    send_cursor_ = 0;
    in_flight_bytes_ = 0;
    maybe_send();
  }
  arm_rto();
}

void Connection::update_rtt(sim::Duration sample) {
  stats_.last_rtt = sample;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::Duration err =
        sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  stats_.smoothed_rtt = srtt_;
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
}

void Connection::become_closed() {
  if (state_ == ConnState::kClosed) return;
  state_ = ConnState::kClosed;
  rto_timer_.disarm();
  segments_.clear();
  send_cursor_ = 0;
  unsent_bytes_ = 0;
  in_flight_bytes_ = 0;
  out_of_order_.clear();
  if (on_closed_) on_closed_();
  host_.on_connection_closed(*this);
}

}  // namespace meshnet::transport
