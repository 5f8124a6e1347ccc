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

bool FifoQdisc::enqueue(Packet packet) {
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

std::optional<Packet> FifoQdisc::dequeue() {
  if (queue_.empty()) return std::nullopt;
  Packet p = queue_.take_front();
  bytes_ -= p.size_bytes();
  note_dequeue(p);
  return p;
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

bool StrictPrioQdisc::enqueue(Packet packet) {
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

std::optional<Packet> StrictPrioQdisc::dequeue() {
  for (Band& band : bands_) {
    if (band.queue.empty()) continue;
    Packet p = band.queue.take_front();
    band.bytes -= p.size_bytes();
    note_dequeue(p);
    return p;
  }
  return std::nullopt;
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

bool WeightedPrioQdisc::enqueue(Packet packet) {
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

void WeightedPrioQdisc::advance_cursor() noexcept {
  turn_credited_ = false;
  if (++round_cursor_ == bands_.size()) round_cursor_ = 0;
}

std::optional<Packet> WeightedPrioQdisc::dequeue() {
  const std::uint64_t backlog = backlog_packets();
  if (backlog == 0) return std::nullopt;
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
      advance_cursor();
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
        advance_cursor();
      }
      return p;
    }
    if (band.queue.size() != backlog) {
      // Deficit exhausted for this turn: move on, keep the remainder.
      advance_cursor();
      continue;
    }
    // This band is the only one backlogged (a 5% band with 9 kB segments
    // needs ~19 rounds of credit). Each further round would zero the
    // other, empty bands' deficits and credit this band once more, n
    // iterations per round. Replay the rounds here: the same additions
    // in the same order, so the deficit rounds exactly as the loop's,
    // checked against the same iteration budget.
    const std::size_t lone = round_cursor_;
    std::size_t checked_at = attempts;  // iteration of the last failed check
    while (checked_at + n < max_iterations) {
      const double credited = band.deficit + band.quantum;
      if (credited >= head_size) break;
      band.deficit = credited;
      checked_at += n;
    }
    // Bands the loop visits after the last failed check: a full round
    // when the check at checked_at + n fits the budget, else only those
    // the budget still reaches. Every round before it visited them all.
    const std::size_t visits =
        checked_at + n < max_iterations ? n - 1
                                        : max_iterations - 1 - checked_at;
    const std::size_t zeroed = checked_at > attempts ? n - 1 : visits;
    for (std::size_t i = 1, b = lone; i <= zeroed; ++i) {
      if (++b == n) b = 0;
      bands_[b].deficit = 0.0;
    }
    turn_credited_ = false;
    // The check at checked_at + n serves: the next iteration makes it.
    if (checked_at + n < max_iterations) continue;
    for (std::size_t i = 0; i <= visits; ++i) advance_cursor();
    break;
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

}  // namespace meshnet::net
