#include "orchestrator/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/manifest.hpp"

namespace sss::orchestrator {

std::vector<CellRange> partition_contiguous(std::size_t total, int shards) {
  if (shards < 1) {
    throw std::invalid_argument("partition_contiguous: shards must be >= 1, got " +
                                std::to_string(shards));
  }
  if (total == 0) {
    throw std::invalid_argument("partition_contiguous: empty grid");
  }
  std::vector<CellRange> ranges;
  for (int i = 0; i < shards; ++i) {
    const CellRange range = scenario::shard_range(i, shards, total);
    if (range.size() > 0) ranges.push_back(range);
  }
  return ranges;
}

namespace {

// Can [0, costs.size()) be covered by <= shards contiguous blocks, each of
// total cost <= budget?  Greedy: extend the current block until adding the
// next cell would exceed the budget.  A single cell above the budget makes
// the cover impossible.
bool feasible(const std::vector<double>& costs, int shards, double budget) {
  int blocks = 1;
  double current = 0.0;
  for (const double cost : costs) {
    if (cost > budget) return false;
    if (current + cost > budget) {
      if (++blocks > shards) return false;
      current = cost;
    } else {
      current += cost;
    }
  }
  return true;
}

}  // namespace

std::vector<CellRange> partition_weighted(const std::vector<double>& costs,
                                          int shards) {
  if (shards < 1) {
    throw std::invalid_argument("partition_weighted: shards must be >= 1, got " +
                                std::to_string(shards));
  }
  if (costs.empty()) {
    throw std::invalid_argument("partition_weighted: empty cost vector");
  }
  double max_cost = 0.0;
  double sum = 0.0;
  for (const double cost : costs) {
    if (!(cost >= 0.0) || !std::isfinite(cost)) {
      throw std::invalid_argument(
          "partition_weighted: costs must be finite and non-negative");
    }
    max_cost = std::max(max_cost, cost);
    sum += cost;
  }

  // Binary-search the minimal feasible bottleneck budget in
  // [max single cell, total cost].  ~60 halvings reach double-precision
  // resolution; the greedy check is O(cells), so this is cheap even for
  // large grids.
  double lo = max_cost;
  double hi = sum;
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = lo + (hi - lo) / 2.0;
    (feasible(costs, shards, mid) ? hi : lo) = mid;
  }

  // Materialize the greedy cover at the found budget.  Tiny epsilon guards
  // the boundary case where `hi` sits exactly on a block sum.
  const double budget = hi * (1.0 + 1e-12);
  std::vector<CellRange> ranges;
  std::size_t begin = 0;
  double current = 0.0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (i > begin && current + costs[i] > budget) {
      ranges.push_back({begin, i});
      begin = i;
      current = 0.0;
    }
    current += costs[i];
  }
  ranges.push_back({begin, costs.size()});
  return ranges;
}

std::vector<double> costs_from_manifest(const obs::RunManifest& manifest,
                                        std::size_t total) {
  if (manifest.cells.empty()) {
    throw std::invalid_argument("costs_from_manifest: manifest has no cells");
  }
  double sum = 0.0;
  for (const obs::CellMetrics& cell : manifest.cells) sum += cell.wall_ms;
  const double mean = sum / static_cast<double>(manifest.cells.size());

  std::vector<double> costs(total, mean);
  for (const obs::CellMetrics& cell : manifest.cells) {
    if (cell.index < total) costs[cell.index] = cell.wall_ms;
  }
  return costs;
}

}  // namespace sss::orchestrator
