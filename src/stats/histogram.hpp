// histogram.hpp — logarithmic histogram.
//
// Log-spaced bins are the natural fit for flow-completion-time data whose
// tail spans two orders of magnitude (0.16 s theoretical to >5 s congested,
// Fig. 2a).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sss::stats {

// Logarithmic histogram: bins are geometric in [lo, hi), `bins_per_decade`
// bins per factor of ten.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t bins_per_decade);

  void add(double x);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

  // ASCII rendering for quick inspection in example binaries.
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double log_lo_;
  double log_width_;
  double lo_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace sss::stats
