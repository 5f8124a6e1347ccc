#pragma once

// Queueing disciplines for simulated NICs and links.
//
// These model the Linux TC machinery the paper's prototype configures: a
// default drop-tail FIFO, a strict-priority qdisc, a *nearly-strict*
// weighted qdisc (deficit round robin with a 95/5 quantum split — the
// "up to 95% of bandwidth" rule the prototype installs with `tc`).
// Classification is pluggable so the cross-layer TcManager can install
// filters that match pod IPs or DSCP marks, exactly like `tc filter`
// rules.
//
// Every queue (the FIFO, each priority band) is a sim::Ring of packets:
// it starts empty and doubles when full, so a qdisc whose backlog has
// peaked enqueues and dequeues without touching the allocator.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "sim/ring.h"

namespace meshnet::net {

/// Maps a packet to a band index (0 = highest priority). Out-of-range
/// results are clamped to the lowest band.
using Classifier = std::function<int(const Packet&)>;

/// Classifier helpers mirroring `tc filter` match rules.
Classifier classify_by_dscp();          ///< EF->0, everything else->1.
Classifier classify_by_dst_ip(IpAddress high_priority_ip);

struct QdiscStats {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t enqueued_bytes = 0;
  std::uint64_t dequeued_bytes = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t max_backlog_bytes = 0;
};

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Returns false when the packet was dropped (queue overflow).
  virtual bool enqueue(Packet packet) = 0;

  /// Returns the next packet to transmit, or nullopt when the queue is
  /// empty. Every discipline here is work-conserving: a non-empty qdisc
  /// always yields a packet.
  virtual std::optional<Packet> dequeue() = 0;

  virtual std::uint64_t backlog_bytes() const noexcept = 0;
  virtual std::uint64_t backlog_packets() const noexcept = 0;
  bool empty() const noexcept { return backlog_packets() == 0; }

  const QdiscStats& stats() const noexcept { return stats_; }

 protected:
  void note_enqueue(const Packet& p) noexcept;
  void note_dequeue(const Packet& p) noexcept;
  void note_drop(const Packet& p) noexcept;
  void note_backlog(std::uint64_t bytes) noexcept;

 private:
  QdiscStats stats_;
};

/// Drop-tail FIFO bounded by bytes.
class FifoQdisc : public Qdisc {
 public:
  explicit FifoQdisc(std::uint64_t byte_limit = 256 * 1024);

  bool enqueue(Packet packet) override;
  std::optional<Packet> dequeue() override;
  std::uint64_t backlog_bytes() const noexcept override { return bytes_; }
  std::uint64_t backlog_packets() const noexcept override {
    return queue_.size();
  }

 private:
  std::uint64_t byte_limit_;
  std::uint64_t bytes_ = 0;
  sim::Ring<Packet> queue_;
};

/// Strict priority across N bands: band 0 is always served first.
class StrictPrioQdisc : public Qdisc {
 public:
  StrictPrioQdisc(int bands, Classifier classifier,
                  std::uint64_t per_band_byte_limit = 256 * 1024);

  bool enqueue(Packet packet) override;
  std::optional<Packet> dequeue() override;
  std::uint64_t backlog_bytes() const noexcept override;
  std::uint64_t backlog_packets() const noexcept override;

  std::uint64_t band_backlog_packets(int band) const;
  std::uint64_t band_drops(int band) const;

 private:
  struct Band {
    sim::Ring<Packet> queue;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;
  };
  Classifier classifier_;
  std::uint64_t per_band_byte_limit_;
  std::vector<Band> bands_;
  int clamp_band(int band) const noexcept;
};

/// Nearly-strict weighted priority: deficit round robin over two or more
/// bands with quantums proportional to their shares. With shares {95, 5}
/// a backlogged high band receives ~95% of link bandwidth while the low
/// band keeps a 5% trickle — matching the prototype's TC configuration.
class WeightedPrioQdisc : public Qdisc {
 public:
  WeightedPrioQdisc(std::vector<double> shares, Classifier classifier,
                    std::uint64_t per_band_byte_limit = 256 * 1024,
                    std::uint32_t quantum_unit_bytes = 9000);

  bool enqueue(Packet packet) override;
  std::optional<Packet> dequeue() override;
  std::uint64_t backlog_bytes() const noexcept override;
  std::uint64_t backlog_packets() const noexcept override;

  std::uint64_t band_backlog_packets(int band) const;
  std::uint64_t band_dequeued_bytes(int band) const;
  std::uint64_t band_drops(int band) const;

 private:
  struct Band {
    sim::Ring<Packet> queue;
    std::uint64_t bytes = 0;
    double quantum = 0.0;   ///< Credit added per DRR round.
    double deficit = 0.0;   ///< Accumulated credit.
    std::uint64_t dequeued_bytes = 0;
    std::uint64_t drops = 0;
  };
  Classifier classifier_;
  std::uint64_t per_band_byte_limit_;
  std::vector<Band> bands_;
  std::size_t round_cursor_ = 0;
  /// Whether the band at round_cursor_ already received its quantum for
  /// the current turn.
  bool turn_credited_ = false;
  int clamp_band(int band) const noexcept;
  /// Ends the turn at round_cursor_ and moves to the next band.
  void advance_cursor() noexcept;
};

}  // namespace meshnet::net
