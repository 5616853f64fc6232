// Tests for the logarithmic histogram.
#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sss::stats {
namespace {

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(LogHistogram(-1.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

TEST(LogHistogram, GeometricEdges) {
  LogHistogram h(0.1, 100.0, 1);  // one bin per decade: [0.1,1), [1,10), [10,100)
  EXPECT_EQ(h.bin_count(), 3u);
  EXPECT_NEAR(h.bin_lo(0), 0.1, 1e-12);
  EXPECT_NEAR(h.bin_hi(0), 1.0, 1e-12);
  EXPECT_NEAR(h.bin_lo(2), 10.0, 1e-9);
}

TEST(LogHistogram, SpansOrdersOfMagnitude) {
  // FCT-like data: 0.16 s theoretical to 5+ s congested.
  LogHistogram h(0.1, 10.0, 4);
  h.add(0.16);
  h.add(0.2);
  h.add(2.5);
  h.add(5.5);
  h.add(0.05);   // underflow
  h.add(50.0);   // overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  std::size_t in_bins = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) in_bins += h.count(b);
  EXPECT_EQ(in_bins, 4u);
}

TEST(LogHistogram, RenderProducesBars) {
  LogHistogram h(0.1, 10.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.5);
  h.add(5.0);
  const std::string art = h.render(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace sss::stats
