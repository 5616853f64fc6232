// Tests for the hardened shard CLI and --merge validation: corrupt,
// disagreeing, duplicated, or missing shard inputs must fail LOUDLY —
// a silent gap in a merged sweep table is the worst possible outcome.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "trace/atomic_io.hpp"

namespace sss::scenario {
namespace {

namespace fs = std::filesystem;

class MergeValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sss_merge_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  std::string out_path() { return (dir_ / "merged.csv").string(); }

  fs::path dir_;
};

TEST_F(MergeValidationTest, BlockShardsMergeInIndexOrderRegardlessOfArgvOrder) {
  const auto s0 = write("sweep.shard0of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.shard1of2.csv", "a,b\n3,4\n");
  EXPECT_EQ(merge_csv_files(out_path(), {s1, s0}), 0);  // reversed on purpose
  EXPECT_EQ(trace::read_text_file(out_path()), "a,b\n1,2\n3,4\n");
}

TEST_F(MergeValidationTest, CellRangeShardsMergeByRange) {
  const auto s0 = write("sweep.cells0-1.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-3.csv", "a,b\n3,4\n5,6\n");
  EXPECT_EQ(merge_csv_files(out_path(), {s1, s0}), 0);
  EXPECT_EQ(trace::read_text_file(out_path()), "a,b\n1,2\n3,4\n5,6\n");
}

TEST_F(MergeValidationTest, TruncatedRowIsRefused) {
  const auto s0 = write("sweep.shard0of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.shard1of2.csv", "a,b\n3\n");  // torn row
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
  EXPECT_FALSE(fs::exists(out_path()));
}

TEST_F(MergeValidationTest, HeaderDisagreementIsRefused) {
  const auto s0 = write("sweep.shard0of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.shard1of2.csv", "a,c\n3,4\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
}

TEST_F(MergeValidationTest, ScenarioNameDisagreementIsRefused) {
  const auto s0 = write("alpha.shard0of2.csv", "a,b\n1,2\n");
  const auto s1 = write("beta.shard1of2.csv", "a,b\n3,4\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
}

TEST_F(MergeValidationTest, DuplicateShardIndexIsRefused) {
  const auto s0 = write("sweep.shard0of2.csv", "a,b\n1,2\n");
  fs::create_directories(dir_ / "copy");
  const auto dup = write("copy/sweep.shard0of2.csv", "a,b\n9,9\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, dup}), 0);
}

TEST_F(MergeValidationTest, MissingShardIsRefused) {
  const auto s0 = write("sweep.shard0of3.csv", "a,b\n1,2\n");
  const auto s2 = write("sweep.shard2of3.csv", "a,b\n5,6\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, s2}), 0);
}

TEST_F(MergeValidationTest, CellGapIsRefused) {
  const auto s0 = write("sweep.cells0-1.csv", "a,b\n1,2\n");
  const auto s2 = write("sweep.cells2-3.csv", "a,b\n5,6\n");  // cell 1 missing
  EXPECT_NE(merge_csv_files(out_path(), {s0, s2}), 0);
}

TEST_F(MergeValidationTest, CellRowCountMismatchIsRefused) {
  // File claims cells [0, 2) but holds one row: a truncated shard that
  // still parses cleanly.  Only the range/row-count cross-check sees it.
  const auto s0 = write("sweep.cells0-2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells2-3.csv", "a,b\n5,6\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
}

TEST_F(MergeValidationTest, MixedNamingConventionsAreRefused) {
  const auto s0 = write("sweep.shard0of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-2.csv", "a,b\n3,4\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
}

TEST_F(MergeValidationTest, PlainNamedInputsStillConcatenate) {
  // Non-shard-named files keep the old behavior: concatenate in argv
  // order (headers still validated).
  const auto a = write("first.csv", "a,b\n1,2\n");
  const auto b = write("second.csv", "a,b\n3,4\n");
  EXPECT_EQ(merge_csv_files(out_path(), {a, b}), 0);
  EXPECT_EQ(trace::read_text_file(out_path()), "a,b\n1,2\n3,4\n");
}

// --- CLI argument hardening (in-process main_from_args) --------------------

int run_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  args.insert(args.begin(), "scenario_runner");
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return main_from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ShardCliValidation, RejectsMalformedShardSpecs) {
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--shard", "2"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--shard", "x/y"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--shard", "0/0"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--shard", "3/2"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--shard", "-1/2"}), 0);
}

TEST(ShardCliValidation, RejectsMalformedCellRanges) {
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--cells", "2"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--cells", "3:1"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--cells", "1:1"}), 0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--cells", "a:b"}), 0);
}

TEST(ShardCliValidation, ShardAndCellsAreMutuallyExclusive) {
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--shard", "0/2",
                     "--cells", "0:1"}),
            0);
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--cells", "0:1",
                     "--shard", "0/2"}),
            0);
}

// A slice names cells of ONE grid: with several scenarios (--run a,b or
// --all) it is refused before anything runs.
TEST(ShardCliValidation, SliceNeedsExactlyOneScenario) {
  EXPECT_EQ(run_cli({"--run", "hop_bottleneck_sweep,wan_cross_traffic", "--shard", "0/2"}), 2);
  EXPECT_EQ(run_cli({"--all", "--tag", "figure", "--shard", "0/2"}), 2);
  // The refusal names the flag that was given.
  for (std::vector<std::string> args :
       {std::vector<std::string>{"--all"},
        {"--run", "hop_bottleneck_sweep,wan_cross_traffic"}}) {
    args.insert(args.end(), {"--cells", "0:1"});
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli(args), 2) << args[0];
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--cells works with exactly one scenario"), std::string::npos)
        << args[0] << ": " << err;
  }
}

TEST(ShardCliValidation, CellsRangePastGridIsRejected) {
  // hop_bottleneck_sweep has 4 cells; [2, 9) reaches past the grid and
  // must be refused before any output rather than silently clamp.
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int status =
      run_cli({"--run", "hop_bottleneck_sweep", "--scale", "0.1", "--cells", "2:9"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, 2);
  EXPECT_EQ(out, "");
  EXPECT_NE(err.find("not a range inside this grid"), std::string::npos) << err;
}

// A timeline cell outside the cells that run is slice misuse too: refused
// before the banner, with exit 2 (for a slice and for the whole grid).
TEST(ShardCliValidation, TimelineCellOutsideTheRunIsRefusedBeforeAnyOutput) {
  const fs::path timeline =
      fs::temp_directory_path() /
      ("sss_timeline_refused_" + std::to_string(::getpid()) + ".json");
  for (std::vector<std::string> args :
       {std::vector<std::string>{"--cells", "0:2", "--timeline-cell", "3"},
        {"--timeline-cell", "9"}}) {
    args.insert(args.begin(), {"--run", "hop_bottleneck_sweep", "--scale", "0.1",
                               "--timeline", timeline.string()});
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int status = run_cli(args);
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(status, 2) << "cell " << args.back();
    EXPECT_EQ(out, "") << "cell " << args.back();
    EXPECT_NE(err.find("timeline cell"), std::string::npos)
        << "cell " << args.back() << ": " << err;
    EXPECT_FALSE(fs::exists(timeline)) << "cell " << args.back();
  }
}

TEST(ShardCliValidation, InjectFaultRequiresTheArmEnvGate) {
  ::unsetenv("SSS_FAULT_INJECTION");
  EXPECT_NE(run_cli({"--run", "hop_bottleneck_sweep", "--inject-fault",
                     "crash@cell=0"}),
            0);
}

TEST(ShardCliValidation, InjectFaultSpecParses) {
  auto spec = parse_fault_spec("crash@cell=3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, FaultSpec::Kind::kCrash);
  EXPECT_EQ(spec->cell, 3u);
  EXPECT_EQ(parse_fault_spec("hang@cell=0")->kind, FaultSpec::Kind::kHang);
  EXPECT_EQ(parse_fault_spec("truncate@cell=1")->kind, FaultSpec::Kind::kTruncate);
  EXPECT_FALSE(parse_fault_spec("explode@cell=1").has_value());
  EXPECT_FALSE(parse_fault_spec("crash@cell=").has_value());
  EXPECT_FALSE(parse_fault_spec("crash").has_value());
}

}  // namespace
}  // namespace sss::scenario
