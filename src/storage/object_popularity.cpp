#include "storage/object_popularity.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sss::storage {

std::vector<double> zipf_weights(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("zipf_weights: n must be >= 1");
  if (s < 0.0) throw std::invalid_argument("zipf_weights: s must be >= 0");
  std::vector<double> weights(n);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    const double w = std::pow(static_cast<double>(k + 1), -s);
    weights[k] = w;
    sum += w;
  }
  for (double& w : weights) w /= sum;
  return weights;
}

std::vector<std::uint64_t> zipf_partition(std::uint64_t items, std::uint64_t bins,
                                          double s) {
  if (bins == 0) throw std::invalid_argument("zipf_partition: bins must be >= 1");
  if (items < bins) {
    throw std::invalid_argument("zipf_partition: need at least one item per bin");
  }
  std::vector<std::uint64_t> out(bins);
  if (s == 0.0) {
    // The historical even split, in exact integer arithmetic — callers
    // (simulate_staged) rely on this path being bit-identical to the old
    // base + (k < remainder) layout.
    const std::uint64_t base = items / bins;
    const std::uint64_t remainder = items % bins;
    for (std::uint64_t k = 0; k < bins; ++k) out[k] = base + (k < remainder ? 1 : 0);
    return out;
  }

  // One item per bin up front; apportion the rest by largest remainder so
  // the total is conserved exactly despite floating-point quotas.
  const std::vector<double> weights = zipf_weights(bins, s);
  const std::uint64_t spare = items - bins;
  std::vector<double> fraction(bins);
  std::uint64_t assigned = 0;
  for (std::uint64_t k = 0; k < bins; ++k) {
    const double quota = static_cast<double>(spare) * weights[k];
    const double floor = std::floor(quota);
    out[k] = 1 + static_cast<std::uint64_t>(floor);
    fraction[k] = quota - floor;
    assigned += static_cast<std::uint64_t>(floor);
  }
  std::uint64_t leftover = spare - assigned;

  // Hand the leftover units to the largest fractional parts, lower ranks
  // first on ties (deterministic regardless of sort implementation).
  std::vector<std::uint64_t> order(bins);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return fraction[a] > fraction[b];
  });
  for (std::uint64_t i = 0; i < leftover; ++i) ++out[order[i]];
  return out;
}

}  // namespace sss::storage
