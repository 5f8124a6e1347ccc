#include "net/link.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace meshnet::net {

Link::Link(sim::Simulator& sim, std::string name, double rate_bits_per_second,
           sim::Duration propagation_delay, std::unique_ptr<Qdisc> qdisc)
    : sim_(sim),
      name_(std::move(name)),
      rate_bps_(rate_bits_per_second),
      prop_delay_(propagation_delay),
      qdisc_(std::move(qdisc)) {}

void Link::send(Packet packet) {
  if (!up_) {
    ++stats_.down_drops;
    return;
  }
  if (loss_probability_ > 0.0 && loss_rng_ &&
      loss_rng_->bernoulli(loss_probability_)) {
    ++stats_.loss_drops;
    return;
  }
  if (!qdisc_->enqueue(std::move(packet), sim_.now())) {
    MESHNET_DEBUG() << "link " << name_ << ": qdisc drop";
  }
  try_transmit();
}

void Link::set_qdisc(std::unique_ptr<Qdisc> qdisc) {
  qdisc_ = std::move(qdisc);
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    ++stats_.carrier_losses;
    // Backlogged packets die with the carrier (the driver's TX ring is
    // flushed); the loss shows up to transports as missing ACKs.
    while (auto packet = qdisc_->dequeue(sim_.now())) {
      ++stats_.down_drops;
    }
    if (pending_retry_ != sim::kInvalidEventId) {
      sim_.cancel(pending_retry_);
      pending_retry_ = sim::kInvalidEventId;
    }
    MESHNET_DEBUG() << "link " << name_ << ": carrier down";
  } else {
    MESHNET_DEBUG() << "link " << name_ << ": carrier up";
    try_transmit();
  }
}

void Link::set_loss(double probability, std::uint64_t seed) {
  if (probability <= 0.0) {
    loss_probability_ = 0.0;
    loss_rng_.reset();
    return;
  }
  loss_probability_ = probability;
  loss_rng_ = std::make_unique<sim::RngStream>(seed, "loss:" + name_);
}

double Link::utilization(sim::Time now) const noexcept {
  if (now <= 0) return 0.0;
  return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
}

void Link::try_transmit() {
  if (transmitting_ || !up_) return;
  if (pending_retry_ != sim::kInvalidEventId) {
    sim_.cancel(pending_retry_);
    pending_retry_ = sim::kInvalidEventId;
  }
  auto packet = qdisc_->dequeue(sim_.now());
  if (!packet) {
    // A shaper may hold packets back even though the transmitter is idle;
    // come back when the qdisc says a packet could be eligible.
    if (const auto ready = qdisc_->next_ready(sim_.now())) {
      // Guard against zero-progress spins: a qdisc that says "ready now"
      // but dequeues nothing must be retried strictly later.
      const sim::Time when = std::max(*ready, sim_.now() + 1);
      pending_retry_ = sim_.schedule_at(when, [this] {
        pending_retry_ = sim::kInvalidEventId;
        try_transmit();
      });
    }
    return;
  }
  transmitting_ = true;
  tx_packet_ = std::move(*packet);
  const sim::Duration tx_time =
      sim::transmission_time(tx_packet_.size_bytes(), rate_bps_);
  stats_.busy_time += tx_time;
  // Serialization finishes after tx_time; the bits arrive prop_delay later.
  auto on_serialized = [this] { finish_transmit(); };
  static_assert(sim::InlineTask::fits_inline<decltype(on_serialized)>());
  sim_.schedule_after(tx_time, on_serialized);
}

void Link::finish_transmit() {
  transmitting_ = false;
  stats_.delivered_packets += 1;
  stats_.delivered_bytes += tx_packet_.size_bytes();
  if (handoff_) {
    // Cut link: the destination lives on another shard. Hand the packet
    // off at serialization-complete time with the remaining propagation;
    // the mailbox layer delivers it there.
    handoff_(std::move(tx_packet_), prop_delay_);
  } else {
    // Arrivals fire in serialization order (constant delay), so each one
    // takes the ring's front.
    wire_.push_back(std::move(tx_packet_));
    auto on_arrival = [this] { arrive(); };
    static_assert(sim::InlineTask::fits_inline<decltype(on_arrival)>());
    sim_.schedule_after(prop_delay_, on_arrival);
  }
  try_transmit();
}

void Link::arrive() {
  Packet packet = wire_.take_front();
  if (sink_) sink_(std::move(packet));
}

}  // namespace meshnet::net
