#pragma once

// The two non-cryptographic hashes the simulator derives deterministic
// seeds and fingerprints from: 64-bit FNV-1a over bytes, and splitmix64
// (Steele et al.'s finalizer, the seeding mixer of java.util.SplittableRandom).
// Both are pure functions, so every value derived from them is a function
// of its inputs alone — never of processing order, thread or shard.

#include <cstdint>
#include <string_view>

namespace meshnet::util {

/// FNV-1a's 64-bit offset basis.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

/// 64-bit FNV-1a over `bytes`, continuing from state `h`: hashing a then b
/// from the state a left equals hashing their concatenation.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64's output function alone: avalanches `x` so nearby inputs
/// diverge.
constexpr std::uint64_t splitmix64_finalize(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One splitmix64 step from state `x`: the golden-gamma increment, then
/// the finalizer.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return splitmix64_finalize(x + 0x9e3779b97f4a7c15ULL);
}

}  // namespace meshnet::util
