#pragma once

// Named, independently seeded PRNG streams.
//
// Each logical source of randomness (one workload's inter-arrival times,
// one load balancer's choices, ...) takes its own stream, seeded with
// splitmix64(FNV-1a(run_seed, name)) feeding an mt19937_64 engine.
// Because a stream's draws depend only on (run_seed, name) and the order
// of calls *on that stream*, adding a new consumer of randomness never
// perturbs the draws seen by existing consumers, which keeps A/B
// experiment pairs (e.g. with/without cross-layer optimization)
// comparable.
//
// Two caveats the derivation implies:
//   * Names must be unique per logical source. Two streams constructed
//     with the same (run_seed, name) are the SAME sequence, not
//     independent draws — include a distinguishing id ("arrivals:svc-7",
//     not "arrivals") when instantiating per-entity streams.
//   * The seeding is a hash, not a cryptographic split: distinct names
//     give streams that are independent for simulation purposes, but
//     there is no hard guarantee against collisions across the full
//     64-bit space. Keep names structured and short.
//
// Thread/cell affinity: a stream is mutable state with no locking. Under
// the parallel engine (sim/parallel.h) every stream must be owned by
// exactly one cell and only drawn from while that cell executes — a
// stream shared across cells would make each cell's draws depend on how
// the executors interleave. Seed per-cell consumers by name exactly as
// above; the (run_seed, name) derivation guarantees a cell sees the same
// sequence no matter how many worker threads the engine runs with.

#include <cstdint>
#include <random>
#include <string_view>

namespace meshnet::sim {

class RngStream {
 public:
  /// Derives the stream's seed from (run_seed, name) via FNV-1a mixing.
  RngStream(std::uint64_t run_seed, std::string_view name);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

 private:
  std::mt19937_64 engine_;
};

}  // namespace meshnet::sim
