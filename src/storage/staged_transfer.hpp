// staged_transfer.hpp — the file-based data-movement path of Fig. 1(a).
//
// Models the prevailing remote-analysis workflow the paper compares
// against: frames are written to the source parallel file system as they
// are generated, grouped into `file_count` files (the Fig. 4 aggregation
// levels: 1,440 / 144 / 10 / 1), each file is shipped over the WAN once
// complete, written into the destination file system, and finally read by
// compute.  Three serializers are chained:
//
//   generation --> source-PFS write --> WAN transfer (+dest write) --> read
//
// A file cannot start its WAN transfer before its last frame is staged —
// this "aggregation wait" is why even K=10 aggregated files lag streaming,
// and the per-file WAN overhead is why K=1,440 collapses.
#pragma once

#include <cstdint>
#include <vector>

#include "detector/frame.hpp"
#include "storage/pfs_model.hpp"
#include "storage/presets.hpp"
#include "units/units.hpp"

namespace sss::storage {

struct StagedTransferConfig {
  PfsConfig source_pfs = aps_voyager_gpfs();
  PfsConfig dest_pfs = alcf_eagle_lustre();
  WanConfig wan = aps_to_alcf_wan();
  // When true (default, matches real DTN workflows) completed files are
  // transferred while later frames are still being generated; when false
  // every transfer waits for the full scan to stage (strict post-processing).
  bool overlap_transfer_with_generation = true;
  // Include the destination-side read by the compute job in the completion
  // time (the data is not "available for processing" until readable).
  bool include_dest_read = true;
  // Zipf exponent for object popularity: file k receives a frame share
  // ∝ 1/(k+1)^skew (storage/object_popularity.hpp).  0 = the historical
  // uniform split; larger values concentrate bytes into the first files
  // (one elephant, long tail of mice).  Exposed on the scenario binding
  // table as `zipf_skew`.
  double object_popularity_skew = 0.0;
};

struct StagedFileEvent {
  std::uint64_t file_index = 0;
  std::uint64_t frame_begin = 0;  // first frame (inclusive)
  std::uint64_t frame_end = 0;    // one past last frame
  double bytes = 0.0;
  double staged_at_s = 0.0;          // last frame written at source
  double transfer_start_s = 0.0;
  double landed_at_s = 0.0;          // fully written at destination
};

struct StagedTimeline {
  std::vector<StagedFileEvent> files;
  double generation_done_s = 0.0;
  double staging_done_s = 0.0;    // all files written at source
  double transfer_done_s = 0.0;   // all files landed at destination
  double read_done_s = 0.0;       // compute read complete (if enabled)
  double total_s = 0.0;           // completion per config
  // S / (alpha * Bw): the paper's T_transfer (Eq. 5), with no file effects.
  double pure_wan_transfer_s = 0.0;

  // I/O overhead coefficient theta (Eq. 7) of this run:
  // (T_IO + T_transfer) / T_transfer with T_IO = total - T_transfer.
  // Includes any aggregation waits that generation pacing causes.
  [[nodiscard]] double theta() const {
    return pure_wan_transfer_s > 0.0 ? total_s / pure_wan_transfer_s : 0.0;
  }
};

// Simulate the staged path for `scan` split into `file_count` files.
// `file_count` must be in [1, scan.frame_count].
[[nodiscard]] StagedTimeline simulate_staged(const StagedTransferConfig& config,
                                             const detector::ScanWorkload& scan,
                                             std::uint64_t file_count);

}  // namespace sss::storage
