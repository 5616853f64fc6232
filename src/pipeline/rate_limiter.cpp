#include "pipeline/rate_limiter.hpp"

#include <algorithm>
#include <stdexcept>

namespace sss::pipeline {

TokenBucket::TokenBucket(units::DataRate rate, units::Bytes burst, Clock& clock)
    : rate_(rate), burst_(burst), clock_(clock) {
  if (!rate.is_positive()) throw std::invalid_argument("TokenBucket: rate must be > 0");
  if (!(burst.bytes() > 0.0)) throw std::invalid_argument("TokenBucket: burst must be > 0");
  tokens_ = burst.bytes();
  last_refill_s_ = clock_.now().seconds();
}

void TokenBucket::refill_locked() {
  const double now_s = clock_.now().seconds();
  const double elapsed = now_s - last_refill_s_;
  if (elapsed > 0.0) {
    tokens_ = std::min(burst_.bytes(), tokens_ + elapsed * rate_.bps());
    last_refill_s_ = now_s;
  }
}

void TokenBucket::acquire(units::Bytes amount) {
  double needed = amount.bytes();
  if (needed <= 0.0) return;
  // Sub-byte residue from floating-point refill arithmetic counts as
  // satisfied; without this, a ~1e-9-byte remainder asks for a sub-ns wait
  // that a coarse clock cannot advance, spinning forever.
  constexpr double kEpsilonBytes = 1e-6;
  for (;;) {
    double wait_s = 0.0;
    {
      std::lock_guard lock(mutex_);
      refill_locked();
      // Consume in installments: take whatever is available, then wait for
      // the remainder to accrue.
      const double take = std::min(tokens_, needed);
      tokens_ -= take;
      needed -= take;
      if (needed <= kEpsilonBytes) return;
      wait_s = std::min(needed, burst_.bytes()) / rate_.bps();
    }
    clock_.sleep_for(units::Seconds::of(wait_s));
  }
}

}  // namespace sss::pipeline
