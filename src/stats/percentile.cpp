#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sss::stats {

namespace {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of empty sample");
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace

double quantile(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

QuantileSet::QuantileSet(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double QuantileSet::quantile(double q) const { return quantile_sorted(sorted_, q); }

double QuantileSet::min() const {
  if (sorted_.empty()) throw std::invalid_argument("min of empty sample");
  return sorted_.front();
}

double QuantileSet::max() const {
  if (sorted_.empty()) throw std::invalid_argument("max of empty sample");
  return sorted_.back();
}

}  // namespace sss::stats
