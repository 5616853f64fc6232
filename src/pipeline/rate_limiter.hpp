// rate_limiter.hpp — token-bucket rate limiter.
//
// Emulates link capacity inside the in-memory pipelines: a sender that must
// push N bytes acquires N tokens, blocking (via the injected clock) when the
// bucket is empty.  Burst capacity models NIC/socket buffering.
#pragma once

#include <mutex>

#include "pipeline/clock.hpp"
#include "units/units.hpp"

namespace sss::pipeline {

class TokenBucket {
 public:
  // `rate` tokens/second (tokens are bytes here); `burst` is the bucket
  // depth.  The clock must outlive the bucket.
  TokenBucket(units::DataRate rate, units::Bytes burst, Clock& clock);

  // Block (through the clock) until `amount` tokens are available, then
  // consume them.  Amounts larger than the burst are allowed: the caller
  // simply waits for the bucket to refill in installments.
  void acquire(units::Bytes amount);

  [[nodiscard]] units::DataRate rate() const { return rate_; }
  [[nodiscard]] units::Bytes burst() const { return burst_; }

 private:
  units::DataRate rate_;
  units::Bytes burst_;
  Clock& clock_;
  std::mutex mutex_;
  double tokens_;
  double last_refill_s_;

  void refill_locked();
};

}  // namespace sss::pipeline
