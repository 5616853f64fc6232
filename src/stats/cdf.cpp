#include "stats/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sss::stats {

EmpiricalCdf::EmpiricalCdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::probability_at_or_below(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (sorted_.empty()) throw std::invalid_argument("quantile of empty CDF");
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  // Smallest index i such that (i + 1) / n >= q.
  const auto n = static_cast<double>(sorted_.size());
  const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

double EmpiricalCdf::max() const {
  if (sorted_.empty()) throw std::invalid_argument("max of empty CDF");
  return sorted_.back();
}

double EmpiricalCdf::mean() const {
  if (sorted_.empty()) return 0.0;
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::tail_ratio(double hi, double lo) const {
  const double denom = quantile(lo);
  if (denom == 0.0) return 0.0;
  return quantile(hi) / denom;
}

}  // namespace sss::stats
