// percentile.hpp — quantile estimation.
//
// The paper's central argument is that *tail* latency (P90/P99, worst case)
// must drive streaming-feasibility decisions, so quantile extraction is a
// first-class facility here: exact order-statistics quantiles over a stored
// sample (the full FCT log fits in memory for all paper-scale runs).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sss::stats {

// Exact quantile of a sample using linear interpolation between closest
// ranks (the "linear" method, same as numpy's default).  `q` in [0, 1].
// The input span is copied; for repeated queries use QuantileSet.
[[nodiscard]] double quantile(std::span<const double> sample, double q);

// Pre-sorted multi-quantile extractor: sorts once, answers many queries.
class QuantileSet {
 public:
  explicit QuantileSet(std::vector<double> sample);

  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace sss::stats
