#pragma once

// Pooled, refcounted message bytes.
//
// A Payload is a 16-byte `{block, offset, size}` view into a refcounted
// block drawn from a thread-local size-class pool (64 B … 16 MiB; only
// larger blocks bypass it). Message bytes travel as such blocks end to
// end without being copied on a plaintext hop: the HTTP codec puts a
// message on the wire as two pieces, a small head block and the body's
// own block; the transport slices both into MSS segments (and
// retransmits) without copying, the one segment that straddles the
// head/body boundary carrying one slice of each; and the receiving parser
// keeps the body as a slice of the sender's body block. An mTLS hop joins
// head and body into one block, once, because its records are ciphertext,
// and encodes that into one record block; the record then travels and is
// parsed by reference the same way. HTTP header arenas are pool blocks
// too. Once the pool is warm, steady-state message flow does not touch
// the allocator at all.
//
// Thread affinity: a simulation (and all of its packets and messages)
// lives on a single thread — the sweep runner pins each point to one
// worker — so refcounts are plain integers and the pool is thread_local.
// Payloads must not be shared across threads. A block only one view
// holds (a header arena) may move to another thread; its release returns
// it to that thread's pool.

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
  /// Message bytes copied from one buffer into another: copy_of(), the
  /// body half of a codec join, a TLS record's body, and the HTTP and TLS
  /// parsers' owned-body fallbacks. Serializing a head is encoding, not a
  /// copy, and header arenas are not message bytes.
  std::uint64_t bytes_copied = 0;
};

/// Snapshot of the calling thread's pool counters.
PayloadPoolStats payload_pool_stats() noexcept;

/// Frees every cached block on the calling thread, Payload::filled's fill
/// blocks included once nothing else holds them (tests / leak tools).
void payload_pool_trim() noexcept;

/// Adds `bytes` to the calling thread's PayloadPoolStats::bytes_copied
/// (for copies made outside this file, e.g. into an uninitialized block).
void count_bytes_copied(std::size_t bytes) noexcept;

class Payload {
 public:
  Payload() noexcept = default;

  /// Copies `bytes` into a pooled block; slices of the result share the
  /// block.
  static Payload copy_of(std::string_view bytes);

  /// `count` copies of `fill`: a slice of the calling thread's cached
  /// block for that byte, which grows by doubling when `count` exceeds
  /// it, so repeated fills share one block and cost no memset.
  /// payload_pool_trim() drops the cached blocks.
  static Payload filled(std::size_t count, char fill);

  /// A fresh `count`-byte block whose bytes the caller fills through
  /// `*out` before sharing the payload (copies and slices see the same
  /// bytes). Sizes are 32-bit: a `count` of 2^32 or more throws
  /// std::length_error before anything is allocated.
  static Payload uninitialized(std::size_t count, char** out);

  Payload(const Payload& other) noexcept
      : block_(other.block_), offset_(other.offset_), size_(other.size_) {
    if (block_ != nullptr) ++block_->refs;
  }

  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  Payload& operator=(const Payload& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      offset_ = other.offset_;
      size_ = other.size_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
      offset_ = std::exchange(other.offset_, 0);
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
    out.offset_ = offset_ + static_cast<std::uint32_t>(offset);
    out.size_ = static_cast<std::uint32_t>(length);
    if (block_ != nullptr) ++block_->refs;
    return out;
  }

  /// True when `next` starts right where this view ends, inside the same
  /// block, so extend(next) can grow this view over it.
  bool continued_by(const Payload& next) const noexcept {
    return block_ != nullptr && block_ == next.block_ &&
           offset_ + size_ == next.offset_;
  }

  /// Grows this view over `next`; requires continued_by(next).
  void extend(const Payload& next) noexcept { size_ += next.size_; }

  /// Bytes from this view's start to the end of its block (a block's
  /// whole size class): the holder of a block nothing else shares may
  /// write that far.
  std::size_t capacity() const noexcept {
    return block_ != nullptr ? block_->capacity - offset_ : 0;
  }

  const char* data() const noexcept {
    return block_ != nullptr ? block_->bytes() + offset_ : nullptr;
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::string_view view() const noexcept { return {data(), size_}; }
  operator std::string_view() const noexcept { return view(); }

  void reset() noexcept {
    release();
    offset_ = 0;
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

  // Inline: packets and segments destroy many moved-from (empty) views,
  // which must not cost a call each.
  void release() noexcept {
    if (block_ != nullptr) {
      if (--block_->refs == 0) free_block(block_);
      block_ = nullptr;
    }
  }
  static void free_block(Block* block) noexcept;

  Block* block_ = nullptr;
  std::uint32_t offset_ = 0;  ///< into block_->bytes()
  std::uint32_t size_ = 0;
};

// Packets, segments and scheduled closures carry payloads by value; the
// sidecar's response-delivery closure holds two and must stay inside
// sim::InlineTask's buffer.
static_assert(sizeof(Payload) == 16, "Payload must stay a 16-byte view");

}  // namespace meshnet::net
