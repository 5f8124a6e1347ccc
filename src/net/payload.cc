#include "net/payload.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

// Under AddressSanitizer a cached block's bytes are poisoned, so reading
// a payload after its last view released it is reported as it would be
// for freed memory; elsewhere the macros expand to nothing.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace meshnet::net {

namespace {

// Size classes are powers of two from 64 B (ACK-sized app messages and
// message heads) to 16 MiB (a bulk HTTP body is one block). Larger blocks
// bypass the pool.
constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kMaxClassBytes = 16 * 1024 * 1024;
constexpr int kMinClassShift = 6;
constexpr int kClassCount = 19;  // 64, 128, ..., 16 MiB

int class_for(std::size_t bytes) noexcept {
  const std::size_t clamped = bytes < kMinClassBytes ? kMinClassBytes : bytes;
  const int cls = std::bit_width(clamped - 1) - kMinClassShift;
  return cls < 0 ? 0 : cls;
}

std::size_t class_bytes(int cls) noexcept {
  return kMinClassBytes << cls;
}

struct Pool {
  std::vector<void*> free_lists[kClassCount];
  /// Payload::filled's cached block per fill byte: its whole size holds
  /// that byte, and each call returns a slice of it.
  Payload fills[256];
  PayloadPoolStats stats;

  ~Pool() { trim(); }

  /// Drops the fill blocks first: releasing one may return it to a free
  /// list, which is emptied next.
  void trim() noexcept {
    for (Payload& fill : fills) fill.reset();
    for (auto& list : free_lists) {
      for (void* block : list) ::operator delete(block);
      list.clear();
    }
    stats.blocks_cached = 0;
    stats.bytes_cached = 0;
  }
};

Pool& pool() noexcept {
  thread_local Pool instance;
  return instance;
}

}  // namespace

struct PayloadPoolAccess {
  using Block = Payload::Block;

  static Block* acquire(std::size_t bytes) {
    // Sizes and capacities are 32-bit; a truncated capacity would also
    // return the block to the wrong free list.
    if (bytes > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("net::Payload: size does not fit 32 bits");
    }
    Pool& p = pool();
    if (bytes > kMaxClassBytes) {
      ++p.stats.unpooled;
      void* raw = ::operator new(sizeof(Block) + bytes);
      Block* block = static_cast<Block*>(raw);
      block->refs = 1;
      block->capacity = static_cast<std::uint32_t>(bytes);
      return block;
    }
    const int cls = class_for(bytes);
    auto& list = p.free_lists[cls];
    if (!list.empty()) {
      ++p.stats.pool_hits;
      --p.stats.blocks_cached;
      p.stats.bytes_cached -= class_bytes(cls);
      Block* block = static_cast<Block*>(list.back());
      list.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(block->bytes(), block->capacity);
      block->refs = 1;
      return block;
    }
    ++p.stats.pool_misses;
    void* raw = ::operator new(sizeof(Block) + class_bytes(cls));
    Block* block = static_cast<Block*>(raw);
    block->refs = 1;
    block->capacity = static_cast<std::uint32_t>(class_bytes(cls));
    return block;
  }

  static void release(Block* block) noexcept {
    if (block->capacity > kMaxClassBytes) {
      ::operator delete(block);
      return;
    }
    Pool& p = pool();
    const int cls = class_for(block->capacity);
    p.free_lists[cls].push_back(block);
    ASAN_POISON_MEMORY_REGION(block->bytes(), block->capacity);
    ++p.stats.blocks_cached;
    p.stats.bytes_cached += class_bytes(cls);
  }
};

PayloadPoolStats payload_pool_stats() noexcept { return pool().stats; }

void count_bytes_copied(std::size_t bytes) noexcept {
  pool().stats.bytes_copied += bytes;
}

void payload_pool_trim() noexcept { pool().trim(); }

Payload Payload::copy_of(std::string_view bytes) {
  char* out_bytes = nullptr;
  Payload out = uninitialized(bytes.size(), &out_bytes);
  if (!bytes.empty()) std::memcpy(out_bytes, bytes.data(), bytes.size());
  count_bytes_copied(bytes.size());
  return out;
}

Payload Payload::filled(std::size_t count, char fill) {
  if (count == 0) return {};
  Payload& cached = pool().fills[static_cast<unsigned char>(fill)];
  if (cached.size() < count) {
    // Grow by doubling (within the 32-bit size limit), so a run of
    // growing fills costs a logarithmic number of blocks and memsets.
    constexpr std::size_t kMaxSize = std::numeric_limits<std::uint32_t>::max();
    const std::size_t size =
        std::max(count, std::min(2 * cached.size(), kMaxSize));
    char* bytes = nullptr;
    Payload grown = uninitialized(size, &bytes);
    std::memset(bytes, fill, size);
    cached = std::move(grown);
  }
  return cached.slice(0, count);
}

Payload Payload::uninitialized(std::size_t count, char** out_bytes) {
  Payload out;
  *out_bytes = nullptr;
  if (count == 0) return out;
  Block* block = PayloadPoolAccess::acquire(count);
  out.block_ = block;
  out.size_ = static_cast<std::uint32_t>(count);
  *out_bytes = block->bytes();
  return out;
}

void Payload::free_block(Block* block) noexcept {
  PayloadPoolAccess::release(block);
}

}  // namespace meshnet::net
