#pragma once

// The simulated wire unit. Packets carry real payload bytes (the transport
// segments actual serialized HTTP messages, as zero-copy slices of the
// sender's blocks) plus the fields the case study manipulates: a DSCP
// codepoint for in-band priority signalling to the "physical" network
// (design §4.2 optimization d).

#include <cstdint>

#include "net/address.h"
#include "net/payload.h"
#include "sim/time.h"

namespace meshnet::net {

/// Transport-level packet flags (TCP-style).
enum PacketFlags : std::uint8_t {
  kFlagNone = 0,
  kFlagSyn = 1 << 0,
  kFlagAck = 1 << 1,
  kFlagRst = 1 << 3,
};

/// Differentiated-services codepoints used by the cross-layer machinery.
/// kExpedited marks latency-sensitive traffic (DSCP EF); kScavenger marks
/// latency-insensitive background traffic (DSCP CS1, the LEDBAT/LE class).
enum class Dscp : std::uint8_t {
  kDefault = 0,
  kScavenger = 8,
  kExpedited = 46,
};

struct Packet {
  FlowKey flow;
  std::uint64_t seq = 0;        ///< Byte offset of payload start.
  std::uint64_t ack = 0;        ///< Cumulative ACK: next expected byte.
  std::uint8_t flags = kFlagNone;
  Dscp dscp = Dscp::kDefault;
  std::uint32_t header_bytes = 40;  ///< IP+transport header overhead.
  /// TCP MSS option: advertised on SYN so the accepting side segments its
  /// sends to match the initiator (0 = absent).
  std::uint32_t mss_option = 0;
  Payload payload;  ///< Pooled slice; empty for pure ACKs.
  /// The segment's bytes that follow `payload` in another block. Only the
  /// one segment of a message that straddles its head/body boundary has
  /// one: `payload` ends the head, `payload_tail` starts the body.
  Payload payload_tail;

  /// Receiver-side echo of the sender's one-way queueing signal, used by
  /// the LEDBAT-style scavenger controller. Carries the remote's observed
  /// one-way delay sample in nanoseconds (0 = none).
  sim::Duration echo_delay = 0;

  sim::Time sent_at = 0;  ///< Stamped by the transport for RTT samples.

  std::uint32_t payload_size() const noexcept {
    return static_cast<std::uint32_t>(payload.size() + payload_tail.size());
  }
  std::uint32_t size_bytes() const noexcept {
    return header_bytes + payload_size();
  }
  bool has(PacketFlags f) const noexcept { return (flags & f) != 0; }
};

}  // namespace meshnet::net
