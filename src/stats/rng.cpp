#include "stats/rng.hpp"

#include <cmath>

namespace sss::stats {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ULL << b)) {
        for (int i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      next();
    }
  }
  s_ = acc;
}

double Random::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
}

double Random::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Random::uniform_index(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias; the loop terminates quickly
  // because the rejection zone is < n.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = engine_.next();
    if (r >= threshold) return r % n;
  }
}

double Random::exponential(double rate) {
  // Inverse CDF; 1 - uniform() is in (0, 1] so the log argument is non-zero.
  return -std::log(1.0 - uniform()) / rate;
}

double Random::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on two uniforms, avoiding u == 0.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Random::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Random::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Random::pareto(double x_m, double shape) {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return x_m / std::pow(u, 1.0 / shape);
}

std::vector<std::uint64_t> derive_stream_seeds(std::uint64_t base_seed, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  Xoshiro256 stream(base_seed);
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back(stream.next());
    stream.jump();
  }
  return seeds;
}

}  // namespace sss::stats
