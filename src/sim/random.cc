#include "sim/random.h"

#include "util/hash.h"

namespace meshnet::sim {

// Finalized (splitmix64) so nearby seeds diverge.
RngStream::RngStream(std::uint64_t run_seed, std::string_view name)
    : engine_(util::splitmix64_finalize(
          util::fnv1a(name, util::kFnv1aOffsetBasis ^ run_seed))) {}

double RngStream::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double RngStream::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::uint64_t RngStream::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

double RngStream::exponential(double mean) {
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

bool RngStream::bernoulli(double p) {
  return std::bernoulli_distribution(p)(engine_);
}

}  // namespace meshnet::sim
