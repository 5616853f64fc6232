// rng.hpp — deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in sss (packet jitter, synthetic payloads,
// workload arrival perturbation) draws from this engine so that experiments
// are reproducible from a single seed.  The engine is xoshiro256** seeded
// via SplitMix64, the combination recommended by the xoshiro authors; both
// are implemented here from the published reference algorithms to keep the
// repository dependency-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sss::stats {

// SplitMix64: used to expand a single 64-bit seed into the 256-bit xoshiro
// state.  Also usable standalone as a fast counter-based generator.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: the workhorse engine.  Satisfies the UniformRandomBitGenerator
// concept so it can also feed <random> distributions if ever needed.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5353535353535353ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }
  std::uint64_t next();

  // Advances the state by 2^128 draws; used to derive independent streams
  // for parallel components from one seed.
  void jump();

 private:
  std::array<std::uint64_t, 4> s_{};
};

// 64-bit seeds for `count` parallel runs: seed i is the i-th value of the
// jump sequence rooted at `base_seed` (one next() per run, jump() between
// runs, so the draws come from well-separated stream positions).  Each
// consumer re-expands its seed through SplitMix64 into a fresh generator;
// decorrelation therefore rests on distinct 64-bit seeds, not on the
// 2^128-draw stream separation itself.  Used by the scenario SweepExecutor
// so sweep results are identical at any thread count.
[[nodiscard]] std::vector<std::uint64_t> derive_stream_seeds(std::uint64_t base_seed,
                                                             std::size_t count);

// Random draws used across the simulator.  All methods are cheap and
// allocation-free.
class Random {
 public:
  explicit Random(std::uint64_t seed = 42) : engine_(seed) {}

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  // Exponential with given rate (mean 1/rate); rate > 0.
  double exponential(double rate);
  // Standard normal via Box-Muller (cached second draw).
  double normal();
  double normal(double mean, double stddev);
  // Log-normal parameterized by the mean/stddev of the underlying normal.
  double lognormal(double mu, double sigma);
  // Pareto with scale x_m > 0 and shape a > 0 (heavy tails for congestion
  // perturbations).
  double pareto(double x_m, double shape);

 private:
  Xoshiro256 engine_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sss::stats
