#pragma once

// Pooled, refcounted message bytes.
//
// A Payload is a view into a refcounted block drawn from a thread-local
// size-class pool (64 B … 16 MiB; only larger blocks bypass it). Message
// bytes travel as such blocks end to end: the HTTP codec encodes a
// message's head and body into ONE block per hop, the transport slices it
// into MSS segments (and retransmits) without copying, and the receiving
// parser keeps the body as a slice of the same block. Once the pool is
// warm, steady-state message flow does not touch the allocator at all.
//
// Thread affinity: a simulation (and all of its packets and messages)
// lives on a single thread — the sweep runner pins each point to one
// worker — so refcounts are plain integers and the pool is thread_local.
// Payloads must not be shared across threads.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace meshnet::net {

/// Allocation behaviour of the calling thread's payload pool (counters
/// are cumulative; deterministic for a deterministic packet sequence).
struct PayloadPoolStats {
  std::uint64_t pool_hits = 0;     ///< blocks served from a freelist
  std::uint64_t pool_misses = 0;   ///< blocks that hit the allocator
  std::uint64_t unpooled = 0;      ///< oversized blocks (> max class)
  std::uint64_t blocks_cached = 0; ///< blocks currently in freelists
  std::uint64_t bytes_cached = 0;  ///< capacity held in freelists
};

/// Snapshot of the calling thread's pool counters.
PayloadPoolStats payload_pool_stats() noexcept;

/// Frees every cached block on the calling thread (tests / leak tools).
void payload_pool_trim() noexcept;

class Payload {
 public:
  Payload() noexcept = default;

  /// Copies `bytes` into a pooled block; slices of the result share the
  /// block.
  static Payload copy_of(std::string_view bytes);

  /// A block of `count` copies of `fill`.
  static Payload filled(std::size_t count, char fill);

  /// A fresh `count`-byte block whose bytes the caller fills through
  /// `*out` before sharing the payload (copies and slices see the same
  /// bytes).
  static Payload uninitialized(std::size_t count, char** out);

  Payload(const Payload& other) noexcept
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) ++block_->refs;
  }

  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  Payload& operator=(const Payload& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      data_ = other.data_;
      size_ = other.size_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~Payload() { release(); }

  /// A sub-range sharing this payload's block (no copy). `offset` +
  /// `length` must lie within size().
  Payload slice(std::size_t offset, std::size_t length) const noexcept {
    Payload out;
    out.block_ = block_;
    out.data_ = data_ + offset;
    out.size_ = static_cast<std::uint32_t>(length);
    if (block_ != nullptr) ++block_->refs;
    return out;
  }

  /// True when `next` starts right where this view ends, inside the same
  /// block, so extend(next) can grow this view over it.
  bool continued_by(const Payload& next) const noexcept {
    return block_ != nullptr && block_ == next.block_ &&
           data_ + size_ == next.data_;
  }

  /// Grows this view over `next`; requires continued_by(next).
  void extend(const Payload& next) noexcept { size_ += next.size_; }

  const char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::string_view view() const noexcept { return {data_, size_}; }
  operator std::string_view() const noexcept { return view(); }

  void reset() noexcept {
    release();
    data_ = nullptr;
    size_ = 0;
  }

 private:
  friend struct PayloadPoolAccess;

  struct Block {
    std::uint32_t refs;
    std::uint32_t capacity;
    // payload bytes follow the header in the same allocation
    char* bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  };

  void release() noexcept;

  Block* block_ = nullptr;
  const char* data_ = nullptr;
  std::uint32_t size_ = 0;
};

}  // namespace meshnet::net
