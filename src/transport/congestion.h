#pragma once

// Congestion controllers for the sidecar-to-sidecar transport.
//
// Two controllers are provided:
//  * RenoController — classic slow start + AIMD; the stand-in for the
//    kernel TCP the paper's prototype uses between sidecars.
//  * LedbatController — a delay-based *scavenger* in the spirit of
//    LEDBAT/TCP-LP/Proteus (paper §4.2 optimization b): it backs off as
//    soon as the queueing-delay estimate approaches a target, so
//    latency-insensitive flows yield to latency-sensitive Reno flows
//    without any switch support.
//
// Controllers are windows in bytes; the connection enforces
// bytes_in_flight < cwnd(). All hooks receive simulated time so
// controllers can be unit-tested without a connection.

#include <cstdint>
#include <memory>
#include <string>

#include "sim/time.h"

namespace meshnet::transport {

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  /// Called for every new (non-retransmit) cumulative ACK.
  /// `rtt` is the sample for the newest-acked segment (0 = no sample).
  virtual void on_ack(std::uint64_t acked_bytes, sim::Duration rtt,
                      sim::Time now) = 0;

  /// Fast-retransmit-detected loss (triple dup-ACK).
  virtual void on_loss(sim::Time now) = 0;

  /// Retransmission timeout: collapse to one segment.
  virtual void on_timeout(sim::Time now) = 0;

  /// Current congestion window, in bytes. Never below one MSS.
  virtual std::uint64_t cwnd() const noexcept = 0;

  virtual std::string name() const = 0;
};

/// Upper bound on either controller's window.
constexpr std::uint64_t kMaxWindowBytes = 8 * 1024 * 1024;

/// RFC 6928-style IW10.
constexpr std::uint64_t kRenoInitialWindowSegments = 10;

class RenoController final : public CongestionController {
 public:
  explicit RenoController(std::uint32_t mss);

  void on_ack(std::uint64_t acked_bytes, sim::Duration rtt,
              sim::Time now) override;
  void on_loss(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  std::uint64_t cwnd() const noexcept override { return cwnd_; }
  std::string name() const override { return "reno"; }

  std::uint64_t ssthresh() const noexcept { return ssthresh_; }
  bool in_slow_start() const noexcept { return cwnd_ < ssthresh_; }

 private:
  std::uint64_t mss_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
};

constexpr std::uint64_t kLedbatInitialWindowSegments = 2;
constexpr double kLedbatGain = 1.0;
/// Window of recent base-RTT history (base RTT is re-learned so route
/// changes do not poison the estimate forever).
constexpr sim::Duration kLedbatBaseHistory = sim::seconds(30);
/// Queueing-delay target; the controller aims to keep rtt - base_rtt at
/// or below this. Datacenter scale (the RFC's 100 ms is WAN).
constexpr sim::Duration kLedbatTargetDelay = sim::milliseconds(2);

class LedbatController final : public CongestionController {
 public:
  explicit LedbatController(std::uint32_t mss);

  void on_ack(std::uint64_t acked_bytes, sim::Duration rtt,
              sim::Time now) override;
  void on_loss(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  std::uint64_t cwnd() const noexcept override { return cwnd_; }
  std::string name() const override { return "ledbat"; }

  sim::Duration base_rtt() const noexcept { return base_rtt_; }
  sim::Duration last_queue_delay() const noexcept { return last_qdelay_; }

 private:
  double mss_;
  double cwnd_bytes_;
  std::uint64_t cwnd_;
  sim::Duration base_rtt_ = INT64_MAX;
  sim::Time base_learned_at_ = 0;
  sim::Duration last_qdelay_ = 0;
};

/// Which controller a connection should use. The cross-layer scavenger
/// selector (core/) maps priority classes onto this.
enum class CcAlgorithm {
  kReno,
  kLedbat,
};

std::unique_ptr<CongestionController> make_controller(CcAlgorithm algo,
                                                      std::uint32_t mss);

}  // namespace meshnet::transport
