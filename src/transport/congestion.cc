#include "transport/congestion.h"

#include <algorithm>

namespace meshnet::transport {

// ------------------------------------------------------------- Reno --

RenoController::RenoController(std::uint32_t mss)
    : mss_(mss),
      cwnd_(mss * kRenoInitialWindowSegments),
      ssthresh_(kMaxWindowBytes) {}

void RenoController::on_ack(std::uint64_t acked_bytes, sim::Duration /*rtt*/,
                            sim::Time /*now*/) {
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS of growth per MSS acked.
    cwnd_ += acked_bytes;
  } else {
    // Congestion avoidance: ~one MSS per RTT, scaled by acked bytes.
    cwnd_ += std::max<std::uint64_t>(1, mss_ * mss_ * acked_bytes /
                                            std::max<std::uint64_t>(cwnd_, 1) /
                                            mss_);
  }
  cwnd_ = std::min(cwnd_, kMaxWindowBytes);
}

void RenoController::on_loss(sim::Time /*now*/) {
  ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * mss_);
  cwnd_ = ssthresh_;
}

void RenoController::on_timeout(sim::Time /*now*/) {
  ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * mss_);
  cwnd_ = mss_;
}

// ----------------------------------------------------------- LEDBAT --

LedbatController::LedbatController(std::uint32_t mss)
    : mss_(static_cast<double>(mss)),
      cwnd_bytes_(mss_ * static_cast<double>(kLedbatInitialWindowSegments)),
      cwnd_(static_cast<std::uint64_t>(cwnd_bytes_)) {}

void LedbatController::on_ack(std::uint64_t acked_bytes, sim::Duration rtt,
                              sim::Time now) {
  if (rtt > 0) {
    if (rtt < base_rtt_ || now - base_learned_at_ > kLedbatBaseHistory) {
      base_rtt_ = rtt;
      base_learned_at_ = now;
    }
    last_qdelay_ = std::max<sim::Duration>(0, rtt - base_rtt_);
  }
  const double target = static_cast<double>(kLedbatTargetDelay);
  const double off_target =
      (target - static_cast<double>(last_qdelay_)) / target;
  // LEDBAT window update: proportional controller around the delay
  // target, scaled per acked byte (RFC 6817 §3.4.2 shape).
  cwnd_bytes_ += kLedbatGain * off_target * mss_ *
                 static_cast<double>(acked_bytes) /
                 std::max(cwnd_bytes_, 1.0);
  cwnd_bytes_ = std::clamp(cwnd_bytes_, mss_,
                           static_cast<double>(kMaxWindowBytes));
  cwnd_ = static_cast<std::uint64_t>(cwnd_bytes_);
}

void LedbatController::on_loss(sim::Time /*now*/) {
  cwnd_bytes_ = std::max(cwnd_bytes_ / 2.0, mss_);
  cwnd_ = static_cast<std::uint64_t>(cwnd_bytes_);
}

void LedbatController::on_timeout(sim::Time /*now*/) {
  cwnd_bytes_ = mss_;
  cwnd_ = static_cast<std::uint64_t>(cwnd_bytes_);
}

std::unique_ptr<CongestionController> make_controller(CcAlgorithm algo,
                                                      std::uint32_t mss) {
  switch (algo) {
    case CcAlgorithm::kLedbat:
      return std::make_unique<LedbatController>(mss);
    case CcAlgorithm::kReno:
    default:
      return std::make_unique<RenoController>(mss);
  }
}

}  // namespace meshnet::transport
