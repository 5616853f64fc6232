// Tests for the token bucket, using the virtual clock so they run
// instantly while still verifying rate arithmetic.
#include "pipeline/rate_limiter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sss::pipeline {
namespace {

TEST(TokenBucket, RejectsBadConstruction) {
  VirtualClock clock;
  EXPECT_THROW(TokenBucket(units::DataRate::bytes_per_second(0.0),
                           units::Bytes::megabytes(1.0), clock),
               std::invalid_argument);
  EXPECT_THROW(TokenBucket(units::DataRate::megabytes_per_second(1.0),
                           units::Bytes::of(0.0), clock),
               std::invalid_argument);
}

// The bucket's contents show as time: acquire() returns without advancing
// the virtual clock while tokens cover the request, and otherwise waits the
// deficit out at the configured rate.

TEST(TokenBucket, BurstAvailableImmediately) {
  VirtualClock clock;
  TokenBucket bucket(units::DataRate::megabytes_per_second(10.0),
                     units::Bytes::megabytes(1.0), clock);
  bucket.acquire(units::Bytes::megabytes(1.0));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 0.0);
  bucket.acquire(units::Bytes::of(1.0));  // drained: must wait
  EXPECT_GT(clock.now().seconds(), 0.0);
}

TEST(TokenBucket, RefillsAtConfiguredRate) {
  VirtualClock clock;
  TokenBucket bucket(units::DataRate::megabytes_per_second(10.0),
                     units::Bytes::megabytes(1.0), clock);
  bucket.acquire(units::Bytes::megabytes(1.0));
  clock.sleep_for(units::Seconds::of(0.05));  // 0.5 MB accrues
  bucket.acquire(units::Bytes::megabytes(0.5));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 0.05);
  bucket.acquire(units::Bytes::megabytes(0.1));  // empty again: 0.1 MB at 10 MB/s
  EXPECT_NEAR(clock.now().seconds() - 0.05, 0.01, 1e-6);
}

TEST(TokenBucket, RefillCappedAtBurst) {
  VirtualClock clock;
  TokenBucket bucket(units::DataRate::megabytes_per_second(10.0),
                     units::Bytes::megabytes(1.0), clock);
  clock.sleep_for(units::Seconds::of(100.0));  // long idle
  // Still just one burst: the second megabyte waits 0.1 s at 10 MB/s.
  bucket.acquire(units::Bytes::megabytes(2.0));
  EXPECT_NEAR(clock.now().seconds() - 100.0, 0.1, 1e-6);
}

TEST(TokenBucket, AcquireBlocksForDeficitTime) {
  // Acquiring 5 MB at 10 MB/s from a full 1 MB bucket must advance the
  // virtual clock by ~0.4 s (4 MB deficit after burst).
  VirtualClock clock;
  TokenBucket bucket(units::DataRate::megabytes_per_second(10.0),
                     units::Bytes::megabytes(1.0), clock);
  const double before = clock.now().seconds();
  bucket.acquire(units::Bytes::megabytes(5.0));
  const double elapsed = clock.now().seconds() - before;
  EXPECT_NEAR(elapsed, 0.4, 0.05);
}

TEST(TokenBucket, SustainedThroughputMatchesRate) {
  VirtualClock clock;
  TokenBucket bucket(units::DataRate::megabytes_per_second(100.0),
                     units::Bytes::megabytes(1.0), clock);
  const double start = clock.now().seconds();
  double total_mb = 0.0;
  for (int i = 0; i < 1000; ++i) {
    bucket.acquire(units::Bytes::megabytes(1.0));
    total_mb += 1.0;
  }
  const double elapsed = clock.now().seconds() - start;
  // 1000 MB at 100 MB/s ~ 10 s (minus the initial burst).
  EXPECT_NEAR(total_mb / elapsed, 100.0, 12.0);
}

TEST(TokenBucket, ZeroAcquireIsFree) {
  VirtualClock clock;
  TokenBucket bucket(units::DataRate::megabytes_per_second(10.0),
                     units::Bytes::megabytes(1.0), clock);
  const double before = clock.now().seconds();
  bucket.acquire(units::Bytes::of(0.0));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), before);
}

TEST(VirtualClock, AdvancesOnSleep) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 0.0);
  clock.sleep_for(units::Seconds::of(1.5));
  EXPECT_NEAR(clock.now().seconds(), 1.5, 1e-9);
  clock.sleep_for(units::Seconds::of(-1.0));  // no-op
  EXPECT_NEAR(clock.now().seconds(), 1.5, 1e-9);
}

TEST(SystemClock, MonotonicAndSleeps) {
  SystemClock clock;
  const double a = clock.now().seconds();
  clock.sleep_for(units::Seconds::millis(10.0));
  const double b = clock.now().seconds();
  EXPECT_GE(b - a, 0.009);
}

}  // namespace
}  // namespace sss::pipeline
