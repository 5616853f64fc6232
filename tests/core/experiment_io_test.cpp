// Tests for transfer-trace persistence (CSV round trips).
#include "core/experiment_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace sss::core {
namespace {

std::vector<TransferRecord> sample_trace() {
  std::vector<TransferRecord> records;
  std::uint64_t id = 0;
  for (double level : {0.25, 0.5, 0.75}) {
    for (int k = 0; k < 3; ++k) {
      TransferRecord r;
      r.transfer_id = id++;
      r.load_level = level;
      r.start_s = level * 100.0 + k;
      r.end_s = r.start_s + 0.4 + level * 0.8 + k * 0.003;
      r.bytes = 0.5e9;
      r.link_gbps = 25.0;
      r.io_s = 0.05 + k * 0.001;
      records.push_back(r);
    }
  }
  return records;
}

TEST(TransferTraceIo, RoundTripsExactly) {
  const auto original = sample_trace();
  const auto restored = transfer_trace_from_csv(transfer_trace_to_csv(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].transfer_id, original[i].transfer_id);
    EXPECT_DOUBLE_EQ(restored[i].load_level, original[i].load_level);
    EXPECT_DOUBLE_EQ(restored[i].start_s, original[i].start_s);
    EXPECT_DOUBLE_EQ(restored[i].end_s, original[i].end_s);
    EXPECT_DOUBLE_EQ(restored[i].bytes, original[i].bytes);
    EXPECT_DOUBLE_EQ(restored[i].link_gbps, original[i].link_gbps);
    EXPECT_DOUBLE_EQ(restored[i].io_s, original[i].io_s);
  }
}

TEST(TransferTraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sss_transfer_trace.csv";
  write_transfer_trace(path, sample_trace());
  EXPECT_EQ(read_transfer_trace(path).size(), 9u);
  std::remove(path.c_str());
  EXPECT_THROW(read_transfer_trace("/nonexistent-dir-xyz/t.csv"), std::runtime_error);
}

const char* const kTraceHeader = "transfer_id,load_level,start_s,end_s,bytes,link_gbps,io_s\n";

TEST(TransferTraceIo, TruncatedRowFailsLoudly) {
  const std::string csv = std::string(kTraceHeader) +
                          "0,0.25,0,0.5,5e8,25,0.05\n"
                          "1,0.25,1,1.5\n";  // row cut off mid-record
  EXPECT_THROW(transfer_trace_from_csv(csv), std::runtime_error);
}

TEST(TransferTraceIo, NonNumericFieldsFailLoudly) {
  EXPECT_THROW(
      transfer_trace_from_csv(std::string(kTraceHeader) + "0,0.25,zero,0.5,5e8,25,0.05\n"),
      std::runtime_error);
  EXPECT_THROW(
      transfer_trace_from_csv(std::string(kTraceHeader) + "x,0.25,0,0.5,5e8,25,0.05\n"),
      std::runtime_error);
  // Trailing garbage in a numeric field is garbage, not a number.
  EXPECT_THROW(
      transfer_trace_from_csv(std::string(kTraceHeader) + "0,0.25,0,0.5abc,5e8,25,0.05\n"),
      std::runtime_error);
}

TEST(TransferTraceIo, OutOfOrderLoadLevelsFailLoudly) {
  const std::string csv = std::string(kTraceHeader) +
                          "0,0.5,0,0.6,5e8,25,0\n"
                          "1,0.25,1,1.5,5e8,25,0\n";  // level went DOWN
  EXPECT_THROW(transfer_trace_from_csv(csv), std::runtime_error);
  // Non-decreasing (including repeated) levels are the valid shape.
  const std::string ok = std::string(kTraceHeader) +
                         "0,0.25,0,0.6,5e8,25,0\n"
                         "1,0.25,1,1.5,5e8,25,0\n"
                         "2,0.5,2,2.8,5e8,25,0\n";
  EXPECT_EQ(transfer_trace_from_csv(ok).size(), 3u);
}

TEST(TransferTraceIo, MissingColumnThrows) {
  EXPECT_THROW(transfer_trace_from_csv("transfer_id,load_level\n0,0.25\n"),
               std::out_of_range);
}

TEST(TransferTraceIo, EmptyTraceRoundTrips) {
  EXPECT_TRUE(transfer_trace_from_csv(transfer_trace_to_csv({})).empty());
}

}  // namespace
}  // namespace sss::core
