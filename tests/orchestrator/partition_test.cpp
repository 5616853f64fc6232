// Tests for grid partitioning: contiguous blocks and cost-weighted cuts.
#include "orchestrator/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/manifest.hpp"
#include "scenario/plan.hpp"

namespace sss::orchestrator {
namespace {

// Every partition must tile [0, total) exactly: contiguous, in order, no
// gap, no overlap, no empty block.
void expect_tiles(const std::vector<CellRange>& ranges, std::size_t total) {
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, total);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LT(ranges[i].begin, ranges[i].end);
    if (i > 0) {
      EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
    }
  }
}

TEST(PartitionContiguous, MatchesPlanShardRange) {
  // Orchestrated workers and manual `--shard I/N` workers must agree on
  // block boundaries, so partition_contiguous IS shard_range.
  for (const std::size_t total : {1u, 4u, 7u, 100u}) {
    for (const int shards : {1, 2, 3, 4}) {
      const auto ranges = partition_contiguous(total, shards);
      expect_tiles(ranges, total);
      std::size_t r = 0;
      for (int i = 0; i < shards; ++i) {
        const auto [begin, end] = scenario::shard_range(i, shards, total);
        if (begin == end) continue;  // empty block, dropped
        ASSERT_LT(r, ranges.size());
        EXPECT_EQ(ranges[r].begin, begin);
        EXPECT_EQ(ranges[r].end, end);
        ++r;
      }
      EXPECT_EQ(r, ranges.size());
    }
  }
}

TEST(PartitionContiguous, MoreShardsThanCellsDropsEmptyBlocks) {
  const auto ranges = partition_contiguous(3, 8);
  expect_tiles(ranges, 3);
  EXPECT_EQ(ranges.size(), 3u);
}

TEST(PartitionContiguous, RejectsDegenerateInputs) {
  EXPECT_THROW(partition_contiguous(0, 2), std::invalid_argument);
  EXPECT_THROW(partition_contiguous(10, 0), std::invalid_argument);
}

TEST(PartitionWeighted, UniformCostsSplitEvenly) {
  const std::vector<double> costs(8, 1.0);
  const auto ranges = partition_weighted(costs, 4);
  expect_tiles(ranges, 8);
  EXPECT_EQ(ranges.size(), 4u);
  for (const CellRange& range : ranges) EXPECT_EQ(range.size(), 2u);
}

TEST(PartitionWeighted, OneHotCellGetsItsOwnBlock) {
  // One cell costs as much as the rest combined: the optimal 2-way cut
  // isolates it so the bottleneck is the hot cell, not hot + neighbors.
  const std::vector<double> costs = {1.0, 1.0, 10.0, 1.0};
  const auto ranges = partition_weighted(costs, 2);
  expect_tiles(ranges, 4);
  double worst = 0.0;
  for (const CellRange& range : ranges) {
    double sum = 0.0;
    for (std::size_t c = range.begin; c < range.end; ++c) sum += costs[c];
    worst = std::max(worst, sum);
  }
  // Optimal bottleneck: {1,1} | {10,1} = 11.  An equal-count split would
  // give {1,1,10} = 12 or worse.
  EXPECT_LE(worst, 11.0 + 1e-9);
}

TEST(PartitionWeighted, SkewedCostsBeatEqualCounts) {
  // Front-loaded grid: weighted boundaries must beat the equal-count
  // bottleneck, which is the whole point of the cost model.
  std::vector<double> costs;
  for (int i = 0; i < 16; ++i) costs.push_back(i < 4 ? 100.0 : 1.0);
  const auto weighted = partition_weighted(costs, 4);
  expect_tiles(weighted, costs.size());

  const auto bottleneck = [&](const std::vector<CellRange>& ranges) {
    double worst = 0.0;
    for (const CellRange& range : ranges) {
      double sum = 0.0;
      for (std::size_t c = range.begin; c < range.end; ++c) sum += costs[c];
      worst = std::max(worst, sum);
    }
    return worst;
  };
  EXPECT_LT(bottleneck(weighted),
            bottleneck(partition_contiguous(costs.size(), 4)));
}

TEST(PartitionWeighted, NeverReturnsMoreThanRequestedShards) {
  const std::vector<double> costs(100, 1.0);
  EXPECT_LE(partition_weighted(costs, 7).size(), 7u);
}

TEST(PartitionWeighted, RejectsBadInputs) {
  EXPECT_THROW(partition_weighted({}, 2), std::invalid_argument);
  EXPECT_THROW(partition_weighted({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(partition_weighted({1.0, -1.0}, 2), std::invalid_argument);
}

TEST(CostsFromManifest, UsesWallMsByGlobalIndex) {
  obs::RunManifest manifest;
  manifest.cells = {{0, "a", 0, 0, 0, 0.0, 5.0}, {2, "c", 0, 0, 0, 0.0, 15.0}};
  const auto costs = costs_from_manifest(manifest, 4);
  ASSERT_EQ(costs.size(), 4u);
  EXPECT_DOUBLE_EQ(costs[0], 5.0);
  EXPECT_DOUBLE_EQ(costs[2], 15.0);
  // Missing cells get the mean of the measured ones.
  EXPECT_DOUBLE_EQ(costs[1], 10.0);
  EXPECT_DOUBLE_EQ(costs[3], 10.0);
}

TEST(CostsFromManifest, RejectsEmptyManifest) {
  EXPECT_THROW(costs_from_manifest(obs::RunManifest{}, 4), std::invalid_argument);
}

}  // namespace
}  // namespace sss::orchestrator
