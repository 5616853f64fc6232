// cdf.hpp — empirical cumulative distribution functions.
//
// Figure 3 of the paper plots the CDF of total transfer times and highlights
// the non-linear P90/P99 increases; EmpiricalCdf is the object the fig3
// bench renders, with forward lookup (fraction <= x), inverse lookup
// (quantile), and tail-ratio helpers that quantify "how much worse is P99
// than the median".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sss::stats {

class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> sample);

  // Fraction of samples <= x, in [0, 1].
  [[nodiscard]] double probability_at_or_below(double x) const;
  // Inverse CDF: smallest sample value v such that P(X <= v) >= q.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  // Ratio of quantile(hi) to quantile(lo); e.g. tail_ratio(0.99, 0.5) is the
  // P99-to-median inflation the paper argues should drive design decisions.
  [[nodiscard]] double tail_ratio(double hi, double lo) const;

  [[nodiscard]] const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace sss::stats
