#include "storage/staged_transfer.hpp"

#include <algorithm>
#include <stdexcept>

#include "storage/object_popularity.hpp"

namespace sss::storage {

StagedTimeline simulate_staged(const StagedTransferConfig& config,
                               const detector::ScanWorkload& scan,
                               std::uint64_t file_count) {
  scan.validate();
  config.wan.validate();
  if (file_count == 0 || file_count > scan.frame_count) {
    throw std::invalid_argument("simulate_staged: file_count must be in [1, frame_count]");
  }

  const PfsModel source(config.source_pfs);
  const PfsModel dest(config.dest_pfs);

  StagedTimeline timeline;
  timeline.generation_done_s = scan.generation_time().seconds();
  timeline.pure_wan_transfer_s =
      (scan.total_bytes() / config.wan.effective_bandwidth()).seconds();

  // --- Stage 1: source PFS write serializer over frames -------------------
  // Frame i can be written once generated; writes are sequential on the
  // staging node.  Each file pays its create cost before its first frame.
  // Frame shares per file: uniform split historically; Zipf-weighted when
  // the popularity knob is set (rank 0 = hottest/largest object).  The
  // skew-0 path of zipf_partition reproduces the old base + (k < remainder)
  // layout exactly.
  const std::uint64_t frames = scan.frame_count;
  const std::vector<std::uint64_t> frames_per_file =
      zipf_partition(frames, file_count, config.object_popularity_skew);

  const double frame_bytes = scan.frame_size.bytes();
  const double src_eff_bw = source.effective_write_bandwidth(scan.frame_size).bps();
  const double frame_write_s = frame_bytes / src_eff_bw;
  const double src_create_s = source.create_time(1).seconds();

  timeline.files.reserve(file_count);
  double write_avail = 0.0;
  std::uint64_t frame_cursor = 0;
  for (std::uint64_t k = 0; k < file_count; ++k) {
    StagedFileEvent ev;
    ev.file_index = k;
    ev.frame_begin = frame_cursor;
    const std::uint64_t frames_in_file = frames_per_file[k];
    ev.frame_end = frame_cursor + frames_in_file;
    ev.bytes = static_cast<double>(frames_in_file) * frame_bytes;

    write_avail += src_create_s;  // file create before first frame
    for (std::uint64_t i = frame_cursor; i < ev.frame_end; ++i) {
      const double ready = scan.frame_ready_at(i).seconds();
      write_avail = std::max(write_avail, ready) + frame_write_s;
    }
    ev.staged_at_s = write_avail;
    frame_cursor = ev.frame_end;
    timeline.files.push_back(ev);
  }
  timeline.staging_done_s = write_avail;

  // --- Stage 2: WAN transfer serializer over files -------------------------
  // One DTN transfer session moves files in order; the destination write is
  // store-through, so the per-file rate is the min of WAN and destination
  // effective bandwidth.  Destination file create cost is paid per file.
  const double wan_bw = config.wan.effective_bandwidth().bps();
  const double dest_create_s = dest.create_time(1).seconds();

  double transfer_avail = config.wan.session_startup.seconds();
  for (auto& ev : timeline.files) {
    const double file_ready =
        config.overlap_transfer_with_generation ? ev.staged_at_s : timeline.staging_done_s;
    const units::Bytes file_size = units::Bytes::of(ev.bytes);
    const double dest_bw = dest.effective_write_bandwidth(file_size).bps();
    const double rate = std::min(wan_bw, dest_bw);

    ev.transfer_start_s = std::max(transfer_avail, file_ready);
    const double cost =
        config.wan.per_file_overhead.seconds() + dest_create_s + ev.bytes / rate;
    ev.landed_at_s = ev.transfer_start_s + cost;
    transfer_avail = ev.landed_at_s;
  }
  timeline.transfer_done_s =
      timeline.files.empty() ? transfer_avail : timeline.files.back().landed_at_s;

  // --- Stage 3: destination read by compute --------------------------------
  if (config.include_dest_read) {
    timeline.read_done_s =
        timeline.transfer_done_s +
        dest.read_time(file_count, scan.total_bytes()).seconds();
    timeline.total_s = timeline.read_done_s;
  } else {
    timeline.read_done_s = timeline.transfer_done_s;
    timeline.total_s = timeline.transfer_done_s;
  }
  return timeline;
}

}  // namespace sss::storage
