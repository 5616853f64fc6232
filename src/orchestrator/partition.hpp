// partition.hpp — split a sweep grid into contiguous shard ranges.
//
// The orchestrator launches one worker per range.  Ranges are ALWAYS
// contiguous [begin, end) slices of the global cell order — contiguity is
// what lets a worker run `--cells A:B` while every cell keeps the RNG
// stream of its global index, so the concatenated shard outputs stay
// bit-identical to an unsharded run.  Two planners:
//
//   partition_contiguous — equal cell counts (scenario::shard_range blocks),
//       the right default when nothing is known about per-cell cost;
//   partition_weighted   — boundaries chosen from measured per-cell costs
//       (a prior run's merged metrics manifest) to minimize the most
//       expensive block, so one slow corner of the grid stops serializing
//       the whole sweep behind a single straggler shard.
#pragma once

#include <cstddef>
#include <vector>

#include "scenario/plan.hpp"

namespace sss::obs {
struct RunManifest;  // obs/manifest.hpp
}

namespace sss::orchestrator {

using scenario::CellRange;

// The non-empty scenario::shard_range blocks of `shards` shards over
// [0, total), so `--shard I/N` workers and orchestrated workers agree on
// boundaries, and so on part names (scenario::part_stem names a part by
// its cell range and `total`, whichever process wrote it).  Empty blocks
// (shards > total) are dropped.
// Throws std::invalid_argument when shards < 1 or total == 0.
[[nodiscard]] std::vector<CellRange> partition_contiguous(std::size_t total,
                                                          int shards);

// Contiguous blocks covering [0, costs.size()) whose maximum block cost is
// minimal (binary search over the bottleneck cost + greedy placement).
// Returns at most `shards` ranges, fewer when fewer non-empty blocks
// suffice; every returned range is non-empty.  Costs must be non-negative.
// Throws std::invalid_argument when shards < 1, costs is empty, or a cost
// is negative/non-finite.
[[nodiscard]] std::vector<CellRange> partition_weighted(
    const std::vector<double>& costs, int shards);

// Per-cell cost vector for a `total`-cell grid from a merged metrics
// manifest: cost[i] = wall_ms of the cell with global index i.  Cells the
// manifest lacks get the mean wall_ms of the cells it has (a prior run at
// a different grid size should degrade gracefully, not crash).  Throws
// std::invalid_argument when the manifest has no cells at all.
[[nodiscard]] std::vector<double> costs_from_manifest(const obs::RunManifest& manifest,
                                                      std::size_t total);

}  // namespace sss::orchestrator
