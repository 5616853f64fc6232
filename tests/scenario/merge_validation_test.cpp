// Tests for the hardened shard CLI and --merge validation: corrupt,
// disagreeing, duplicated, or missing shard inputs must fail LOUDLY —
// a silent gap in a merged sweep table is the worst possible outcome.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

  // merge_csv_files, which must fail; returns its stderr.
  static std::string merge_error(const std::string& out,
                                 const std::vector<std::string>& inputs) {
    ::testing::internal::CaptureStderr();
    const int status = merge_csv_files(out, inputs);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(status, 0) << err;
    return err;
  }

  fs::path dir_;
};

TEST_F(MergeValidationTest, PartsMergeInRangeOrderRegardlessOfArgvOrder) {
  const auto s0 = write("sweep.cells0-1of4.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-3of4.csv", "a,b\n3,4\n5,6\n");
  const auto s2 = write("sweep.cells3-4of4.csv", "a,b\n7,8\n");
  EXPECT_EQ(merge_csv_files(out_path(), {s2, s0, s1}), 0);  // scrambled on purpose
  EXPECT_EQ(trace::read_text_file(out_path()), "a,b\n1,2\n3,4\n5,6\n7,8\n");
}

TEST_F(MergeValidationTest, TruncatedRowIsRefused) {
  const auto s0 = write("sweep.cells0-1of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-2of2.csv", "a,b\n3\n");  // torn row
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
  EXPECT_FALSE(fs::exists(out_path()));
}

TEST_F(MergeValidationTest, HeaderDisagreementIsRefused) {
  const auto s0 = write("sweep.cells0-1of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-2of2.csv", "a,c\n3,4\n");
  EXPECT_NE(merge_csv_files(out_path(), {s0, s1}), 0);
}

TEST_F(MergeValidationTest, ScenarioNameDisagreementIsRefused) {
  const auto s0 = write("alpha.cells0-1of2.csv", "a,b\n1,2\n");
  const auto s1 = write("beta.cells1-2of2.csv", "a,b\n3,4\n");
  EXPECT_NE(merge_error(out_path(), {s0, s1}).find("scenario names disagree"),
            std::string::npos);
}

TEST_F(MergeValidationTest, GridTotalsDisagreeAreRefused) {
  // The ranges tile [0, 4), but the parts come from grids of 4 and 5 cells.
  const auto s0 = write("sweep.cells0-2of4.csv", "a,b\n1,2\n3,4\n");
  const auto s1 = write("sweep.cells2-4of5.csv", "a,b\n5,6\n7,8\n");
  EXPECT_NE(merge_error(out_path(), {s0, s1}).find("grid sizes disagree: of4 vs of5"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(out_path()));
}

TEST_F(MergeValidationTest, DuplicateRangeIsRefused) {
  const auto s0 = write("sweep.cells0-1of2.csv", "a,b\n1,2\n");
  fs::create_directories(dir_ / "copy");
  const auto dup = write("copy/sweep.cells0-1of2.csv", "a,b\n9,9\n");
  const auto s1 = write("sweep.cells1-2of2.csv", "a,b\n3,4\n");
  EXPECT_NE(merge_error(out_path(), {s0, dup, s1}).find("overlapping"), std::string::npos);
}

TEST_F(MergeValidationTest, OverlappingRangesAreRefused) {
  const auto s0 = write("sweep.cells0-2of3.csv", "a,b\n1,2\n3,4\n");
  const auto s1 = write("sweep.cells1-3of3.csv", "a,b\n3,4\n5,6\n");
  EXPECT_NE(merge_error(out_path(), {s0, s1}).find("overlapping cell ranges at cell 1"),
            std::string::npos);
}

TEST_F(MergeValidationTest, MissingMiddlePartIsRefused) {
  const auto s0 = write("sweep.cells0-1of3.csv", "a,b\n1,2\n");
  const auto s2 = write("sweep.cells2-3of3.csv", "a,b\n5,6\n");  // cell 1 missing
  EXPECT_NE(merge_error(out_path(), {s0, s2}).find("missing cells [1, 2)"),
            std::string::npos);
}

TEST_F(MergeValidationTest, MissingTrailingPartIsRefused) {
  // The parts given tile [0, 2) cleanly; only N in the name shows that
  // cells [2, 4) are missing.
  const auto s0 = write("sweep.cells0-2of4.csv", "a,b\n1,2\n3,4\n");
  EXPECT_NE(merge_error(out_path(), {s0}).find("missing cells [2, 4) of 4"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(out_path()));
}

TEST_F(MergeValidationTest, CellRowCountMismatchIsRefused) {
  // File claims cells [0, 2) but holds one row: a truncated part that
  // still parses cleanly.  Only the range/row-count cross-check sees it.
  const auto s0 = write("sweep.cells0-2of3.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells2-3of3.csv", "a,b\n5,6\n");
  EXPECT_NE(merge_error(out_path(), {s0, s1}).find("expected 2"), std::string::npos);
}

TEST_F(MergeValidationTest, LegacyShardNameIsRefused) {
  // Names from before every part carried its grid size are refused, not
  // concatenated in argument order: shard<I>of<N>, cells<A>-<B>, and a mix
  // of either with the current form.
  const auto s0 = write("sweep.shard0of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.shard1of2.csv", "a,b\n3,4\n");
  const auto c0 = write("sweep.cells0-1.csv", "a,b\n1,2\n");
  const auto c1 = write("sweep.cells1-2of2.csv", "a,b\n3,4\n");
  for (const std::vector<std::string>& inputs :
       {std::vector<std::string>{s0, s1}, {c0}, {s0, c1}, {c0, c1}}) {
    EXPECT_NE(merge_error(out_path(), inputs).find("<scenario>.cells<A>-<B>of<N>.csv"),
              std::string::npos)
        << inputs.front();
  }
  EXPECT_FALSE(fs::exists(out_path()));
}

TEST_F(MergeValidationTest, RangePastItsGridIsRefused) {
  const auto s0 = write("sweep.cells0-2of2.csv", "a,b\n1,2\n3,4\n");
  const auto s1 = write("sweep.cells2-3of2.csv", "a,b\n5,6\n");
  EXPECT_NE(merge_error(out_path(), {s0, s1}).find("A <= B <= N"), std::string::npos);
}

TEST_F(MergeValidationTest, EmptyRangePartMerges) {
  // `--shard 0/8` of a 4-cell grid owns no cells: its part holds the
  // header and no rows, and merges with the parts that hold the cells.
  const auto empty = write("sweep.cells0-0of2.csv", "a,b\n");
  const auto s0 = write("sweep.cells0-1of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-2of2.csv", "a,b\n3,4\n");
  EXPECT_EQ(merge_csv_files(out_path(), {s1, empty, s0}), 0);
  EXPECT_EQ(trace::read_text_file(out_path()), "a,b\n1,2\n3,4\n");
  // An empty range holds exactly zero rows.
  const auto stuffed = write("sweep.cells1-1of2.csv", "a,b\n9,9\n");
  EXPECT_NE(merge_error(out_path(), {s0, stuffed, s1}).find("expected 0"),
            std::string::npos);
}

TEST_F(MergeValidationTest, PlainNameIsRefused) {
  // Every input must be a part: a plain name carries no cell range, so it
  // is refused rather than concatenated in argument order.
  const auto a = write("first.csv", "a,b\n1,2\n");
  const auto b = write("second.csv", "a,b\n3,4\n");
  EXPECT_NE(merge_error(out_path(), {a, b}).find("not a part name"), std::string::npos);
  EXPECT_FALSE(fs::exists(out_path()));
}

TEST_F(MergeValidationTest, ZeroBytePartIsRefused) {
  // An empty range holds no rows, but its part still holds the header.
  const auto empty = write("sweep.cells0-0of2.csv", "");
  const auto s0 = write("sweep.cells0-1of2.csv", "a,b\n1,2\n");
  const auto s1 = write("sweep.cells1-2of2.csv", "a,b\n3,4\n");
  EXPECT_NE(merge_error(out_path(), {s0, empty, s1}).find("sweep.cells0-0of2.csv has no header"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(out_path()));
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

// A scenario that reduces across runs has no per-slice rows: slicing it is
// refused before the banner, with exit 2, in either spelling.
TEST(ShardCliValidation, SliceOfReducingScenarioIsRefusedBeforeAnyOutput) {
  for (const std::vector<std::string>& slice :
       {std::vector<std::string>{"--cells", "0:1"}, {"--shard", "0/2"}}) {
    std::vector<std::string> args = {"--run", "fig3_cdf", "--scale", "0.05"};
    args.insert(args.end(), slice.begin(), slice.end());
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int status = run_cli(args);
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(status, 2) << slice[0];
    EXPECT_EQ(out, "") << slice[0];
    EXPECT_NE(err.find("reduces across runs"), std::string::npos) << slice[0] << ": " << err;
  }
}

// Every slice names its part <scenario>.cells<A>-<B>of<N>.csv, so a --shard
// part and a --cells part of one grid merge into the whole-grid table.
TEST(SliceParts, ShardAndCellsPartsMergeToTheWholeGrid) {
  const fs::path dir =
      fs::temp_directory_path() / ("sss_slice_parts_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::vector<std::string> run = {"--run",  "hop_bottleneck_sweep", "--scale",
                                        "0.1",    "--seed",               "42",
                                        "--quiet", "--csv-dir",           dir.string()};
  ::testing::internal::CaptureStdout();
  std::vector<int> status;
  for (const std::vector<std::string>& slice :
       {std::vector<std::string>{"--shard", "0/2"}, {"--cells", "2:4"}}) {
    std::vector<std::string> args = run;
    args.insert(args.end(), slice.begin(), slice.end());
    status.push_back(run_cli(args));
  }
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(status, (std::vector<int>{0, 0}));

  std::vector<std::string> written;
  for (const auto& entry : fs::directory_iterator(dir)) {
    written.push_back(entry.path().filename().string());
  }
  std::sort(written.begin(), written.end());
  EXPECT_EQ(written, (std::vector<std::string>{"hop_bottleneck_sweep.cells0-2of4.csv",
                                               "hop_bottleneck_sweep.cells2-4of4.csv"}));

  const std::string merged = (dir / "merged.csv").string();
  ::testing::internal::CaptureStdout();
  const int merge_status =
      run_cli({"--merge", merged, (dir / "hop_bottleneck_sweep.cells2-4of4.csv").string(),
               (dir / "hop_bottleneck_sweep.cells0-2of4.csv").string()});
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(merge_status, 0);
  EXPECT_EQ(trace::read_text_file(merged),
            trace::read_text_file(SSS_SOURCE_DIR
                                  "/tests/data/topology_golden/hop_bottleneck_sweep.csv"));
  fs::remove_all(dir);
}

// More shards than cells: `--shard I/8` of the 4-cell grid leaves four
// shards empty.  Each still writes its header-only part, and all eight
// merge into the whole-grid table.
TEST(SliceParts, EmptyShardPartsMergeToTheWholeGrid) {
  const fs::path dir =
      fs::temp_directory_path() / ("sss_empty_parts_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::vector<std::string> merge = {"--merge", (dir / "merged.csv").string()};
  ::testing::internal::CaptureStdout();
  std::vector<int> status;
  for (int shard = 0; shard < 8; ++shard) {
    status.push_back(run_cli({"--run", "hop_bottleneck_sweep", "--scale", "0.1", "--seed",
                              "42", "--quiet", "--csv-dir", dir.string(), "--shard",
                              std::to_string(shard) + "/8"}));
    const CellRange cells = shard_range(shard, 8, 4);
    merge.push_back(
        (dir / (part_stem("hop_bottleneck_sweep", cells, 4) + ".csv")).string());
  }
  status.push_back(run_cli(merge));
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(status, std::vector<int>(9, 0));
  const std::string empty =
      trace::read_text_file((dir / "hop_bottleneck_sweep.cells0-0of4.csv").string());
  EXPECT_EQ(std::count(empty.begin(), empty.end(), '\n'), 1) << empty;  // header only
  EXPECT_EQ(trace::read_text_file((dir / "merged.csv").string()),
            trace::read_text_file(SSS_SOURCE_DIR
                                  "/tests/data/topology_golden/hop_bottleneck_sweep.csv"));
  fs::remove_all(dir);
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
