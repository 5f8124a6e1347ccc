#include "net/qdisc.h"

#include <algorithm>

namespace meshnet::net {

Classifier classify_by_dscp() {
  return [](const Packet& p) {
    return p.dscp == Dscp::kExpedited ? 0 : 1;
  };
}

Classifier classify_by_dst_ip(IpAddress high_priority_ip) {
  return [high_priority_ip](const Packet& p) {
    return p.flow.dst_ip == high_priority_ip ? 0 : 1;
  };
}

Classifier classify_all_to(int band) {
  return [band](const Packet&) { return band; };
}

void Qdisc::note_enqueue(const Packet& p) noexcept {
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += p.size_bytes();
}

void Qdisc::note_dequeue(const Packet& p) noexcept {
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += p.size_bytes();
}

void Qdisc::note_drop(const Packet& p) noexcept {
  ++stats_.dropped_packets;
  stats_.dropped_bytes += p.size_bytes();
}

void Qdisc::note_backlog(std::uint64_t bytes) noexcept {
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, bytes);
}

// ---------------------------------------------------------------- FIFO --

FifoQdisc::FifoQdisc(std::uint64_t byte_limit) : byte_limit_(byte_limit) {}

bool FifoQdisc::enqueue(Packet packet, sim::Time /*now*/) {
  if (bytes_ + packet.size_bytes() > byte_limit_ && !queue_.empty()) {
    note_drop(packet);
    return false;
  }
  bytes_ += packet.size_bytes();
  note_enqueue(packet);
  note_backlog(bytes_);
  queue_.push_back(std::move(packet));
  return true;
}

std::optional<Packet> FifoQdisc::dequeue(sim::Time /*now*/) {
  if (queue_.empty()) return std::nullopt;
  Packet p = queue_.take_front();
  bytes_ -= p.size_bytes();
  note_dequeue(p);
  return p;
}

std::optional<sim::Time> FifoQdisc::next_ready(sim::Time now) const {
  if (queue_.empty()) return std::nullopt;
  return now;
}

// -------------------------------------------------------- StrictPrio --

StrictPrioQdisc::StrictPrioQdisc(int bands, Classifier classifier,
                                 std::uint64_t per_band_byte_limit)
    : classifier_(std::move(classifier)),
      per_band_byte_limit_(per_band_byte_limit),
      bands_(static_cast<std::size_t>(std::max(bands, 1))) {}

int StrictPrioQdisc::clamp_band(int band) const noexcept {
  if (band < 0) return 0;
  const int last = static_cast<int>(bands_.size()) - 1;
  return band > last ? last : band;
}

bool StrictPrioQdisc::enqueue(Packet packet, sim::Time /*now*/) {
  Band& band = bands_[static_cast<std::size_t>(clamp_band(classifier_(packet)))];
  if (band.bytes + packet.size_bytes() > per_band_byte_limit_ &&
      !band.queue.empty()) {
    ++band.drops;
    note_drop(packet);
    return false;
  }
  band.bytes += packet.size_bytes();
  note_enqueue(packet);
  note_backlog(backlog_bytes());
  band.queue.push_back(std::move(packet));
  return true;
}

std::optional<Packet> StrictPrioQdisc::dequeue(sim::Time /*now*/) {
  for (Band& band : bands_) {
    if (band.queue.empty()) continue;
    Packet p = band.queue.take_front();
    band.bytes -= p.size_bytes();
    note_dequeue(p);
    return p;
  }
  return std::nullopt;
}

std::optional<sim::Time> StrictPrioQdisc::next_ready(sim::Time now) const {
  return backlog_packets() > 0 ? std::optional<sim::Time>(now) : std::nullopt;
}

std::uint64_t StrictPrioQdisc::backlog_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Band& b : bands_) total += b.bytes;
  return total;
}

std::uint64_t StrictPrioQdisc::backlog_packets() const noexcept {
  std::uint64_t total = 0;
  for (const Band& b : bands_) total += b.queue.size();
  return total;
}

std::uint64_t StrictPrioQdisc::band_backlog_packets(int band) const {
  return bands_.at(static_cast<std::size_t>(band)).queue.size();
}

std::uint64_t StrictPrioQdisc::band_drops(int band) const {
  return bands_.at(static_cast<std::size_t>(band)).drops;
}

// ------------------------------------------------------ WeightedPrio --

WeightedPrioQdisc::WeightedPrioQdisc(std::vector<double> shares,
                                     Classifier classifier,
                                     std::uint64_t per_band_byte_limit,
                                     std::uint32_t quantum_unit_bytes)
    : classifier_(std::move(classifier)),
      per_band_byte_limit_(per_band_byte_limit) {
  if (shares.empty()) shares.push_back(1.0);
  double total = 0.0;
  for (double s : shares) total += std::max(s, 0.0);
  if (total <= 0.0) total = 1.0;
  bands_.resize(shares.size());
  // Scale quantums so the *largest* share gets one MTU-ish quantum per
  // round; smaller shares accumulate credit over multiple rounds.
  const double max_share = *std::max_element(shares.begin(), shares.end());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const double norm = std::max(shares[i], 0.0) / max_share;
    bands_[i].quantum = norm * static_cast<double>(quantum_unit_bytes);
  }
}

int WeightedPrioQdisc::clamp_band(int band) const noexcept {
  if (band < 0) return 0;
  const int last = static_cast<int>(bands_.size()) - 1;
  return band > last ? last : band;
}

bool WeightedPrioQdisc::enqueue(Packet packet, sim::Time /*now*/) {
  Band& band = bands_[static_cast<std::size_t>(clamp_band(classifier_(packet)))];
  if (band.bytes + packet.size_bytes() > per_band_byte_limit_ &&
      !band.queue.empty()) {
    ++band.drops;
    note_drop(packet);
    return false;
  }
  band.bytes += packet.size_bytes();
  note_enqueue(packet);
  note_backlog(backlog_bytes());
  band.queue.push_back(std::move(packet));
  return true;
}

std::optional<Packet> WeightedPrioQdisc::dequeue(sim::Time /*now*/) {
  if (backlog_packets() == 0) return std::nullopt;
  // Deficit round robin. Each band receives its quantum exactly once per
  // turn (tracked by turn_credited_) and may transmit while its deficit
  // lasts; when the deficit cannot cover the head packet, the turn ends
  // and the deficit carries over. Bands with empty queues forfeit their
  // deficit (standard DRR) so an idle high band cannot hoard credit.
  const std::size_t n = bands_.size();
  // Worst case one full round with credit plus the safety iteration:
  // deficits grow every round, so a head packet is always reachable
  // within (max_packet / min_quantum + 1) rounds; bound generously.
  const std::size_t max_iterations = 64 * n + 4;
  for (std::size_t attempts = 0; attempts < max_iterations; ++attempts) {
    Band& band = bands_[round_cursor_];
    if (band.queue.empty()) {
      band.deficit = 0.0;
      turn_credited_ = false;
      round_cursor_ = (round_cursor_ + 1) % n;
      continue;
    }
    if (!turn_credited_) {
      band.deficit += band.quantum;
      turn_credited_ = true;
    }
    const auto head_size =
        static_cast<double>(band.queue.front().size_bytes());
    if (band.deficit >= head_size) {
      band.deficit -= head_size;
      Packet p = band.queue.take_front();
      band.bytes -= p.size_bytes();
      band.dequeued_bytes += p.size_bytes();
      note_dequeue(p);
      if (band.queue.empty()) {
        band.deficit = 0.0;
        turn_credited_ = false;
        round_cursor_ = (round_cursor_ + 1) % n;
      }
      return p;
    }
    // Deficit exhausted for this turn: move on, keep the remainder.
    turn_credited_ = false;
    round_cursor_ = (round_cursor_ + 1) % n;
  }
  // Unreachable with growing deficits; serve any head as a safety valve.
  for (Band& band : bands_) {
    if (band.queue.empty()) continue;
    Packet p = band.queue.take_front();
    band.bytes -= p.size_bytes();
    band.dequeued_bytes += p.size_bytes();
    note_dequeue(p);
    return p;
  }
  return std::nullopt;
}

std::optional<sim::Time> WeightedPrioQdisc::next_ready(sim::Time now) const {
  return backlog_packets() > 0 ? std::optional<sim::Time>(now) : std::nullopt;
}

std::uint64_t WeightedPrioQdisc::backlog_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Band& b : bands_) total += b.bytes;
  return total;
}

std::uint64_t WeightedPrioQdisc::backlog_packets() const noexcept {
  std::uint64_t total = 0;
  for (const Band& b : bands_) total += b.queue.size();
  return total;
}

std::uint64_t WeightedPrioQdisc::band_backlog_packets(int band) const {
  return bands_.at(static_cast<std::size_t>(band)).queue.size();
}

std::uint64_t WeightedPrioQdisc::band_dequeued_bytes(int band) const {
  return bands_.at(static_cast<std::size_t>(band)).dequeued_bytes;
}

std::uint64_t WeightedPrioQdisc::band_drops(int band) const {
  return bands_.at(static_cast<std::size_t>(band)).drops;
}

// ------------------------------------------------------- TokenBucket --

TokenBucketQdisc::TokenBucketQdisc(double rate_bits_per_second,
                                   std::uint64_t burst_bytes,
                                   std::uint64_t byte_limit)
    : rate_bps_(rate_bits_per_second),
      burst_bytes_(static_cast<double>(burst_bytes)),
      byte_limit_(byte_limit),
      tokens_(static_cast<double>(burst_bytes)) {}

double TokenBucketQdisc::effective_cap() const noexcept {
  // A head packet larger than the burst could never accumulate enough
  // tokens under a hard cap; allow filling up to its size so oversized
  // packets drain at the configured rate instead of deadlocking (Linux
  // TBF rejects such configs outright; we degrade gracefully).
  if (queue_.empty()) return burst_bytes_;
  return std::max(burst_bytes_,
                  static_cast<double>(queue_.front().size_bytes()));
}

void TokenBucketQdisc::refill(sim::Time now) noexcept {
  if (now <= last_refill_) return;
  const double elapsed_s = sim::to_seconds(now - last_refill_);
  tokens_ = std::min(effective_cap(), tokens_ + elapsed_s * rate_bps_ / 8.0);
  last_refill_ = now;
}

double TokenBucketQdisc::tokens_at(sim::Time now) const noexcept {
  const double elapsed_s =
      now > last_refill_ ? sim::to_seconds(now - last_refill_) : 0.0;
  return std::min(effective_cap(), tokens_ + elapsed_s * rate_bps_ / 8.0);
}

bool TokenBucketQdisc::enqueue(Packet packet, sim::Time /*now*/) {
  if (bytes_ + packet.size_bytes() > byte_limit_ && !queue_.empty()) {
    note_drop(packet);
    return false;
  }
  bytes_ += packet.size_bytes();
  note_enqueue(packet);
  note_backlog(bytes_);
  queue_.push_back(std::move(packet));
  return true;
}

std::optional<Packet> TokenBucketQdisc::dequeue(sim::Time now) {
  if (queue_.empty()) return std::nullopt;
  refill(now);
  const auto need = static_cast<double>(queue_.front().size_bytes());
  if (tokens_ < need) return std::nullopt;
  tokens_ -= need;
  Packet p = queue_.take_front();
  bytes_ -= p.size_bytes();
  note_dequeue(p);
  return p;
}

std::optional<sim::Time> TokenBucketQdisc::next_ready(sim::Time now) const {
  if (queue_.empty()) return std::nullopt;
  const auto need = static_cast<double>(queue_.front().size_bytes());
  const double have = tokens_at(now);
  if (have >= need) return now;
  const double deficit_bytes = need - have;
  const double wait_s = deficit_bytes * 8.0 / rate_bps_;
  // A zero/negligible refill rate makes the wait non-finite or far beyond
  // any experiment horizon; the cap keeps from_seconds() (int64 ns) from
  // overflowing. The head packet will never be ready.
  constexpr double kMaxWaitS = 1e8;  // ~3 sim-years
  if (!(wait_s < kMaxWaitS)) return std::nullopt;
  return now + sim::from_seconds(wait_s) + 1;  // +1ns: strictly after refill
}

}  // namespace meshnet::net
