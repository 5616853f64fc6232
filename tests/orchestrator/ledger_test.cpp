// Tests for the crash-safe work ledger: journal, replay, torn tails.
#include "orchestrator/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

namespace sss::orchestrator {
namespace {

namespace fs = std::filesystem;

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sss_ledger_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "ledger.jsonl").string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static LedgerPlan sample_plan() {
    LedgerPlan plan;
    plan.scenario = "hop_bottleneck_sweep";
    plan.seed = 42;
    plan.scale = 0.1;
    plan.total_cells = 4;
    plan.shards = {{0, 2}, {2, 4}};
    return plan;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(LedgerTest, FreshLedgerWritesPlanRecord) {
  {
    Ledger ledger(path_, sample_plan(), /*resume_expected=*/false);
    EXPECT_FALSE(ledger.resumed());
    ASSERT_EQ(ledger.replay().size(), 2u);
    EXPECT_FALSE(ledger.replay()[0].done);
  }
  std::ifstream in(path_);
  std::string first_line;
  ASSERT_TRUE(std::getline(in, first_line));
  EXPECT_NE(first_line.find("\"event\":\"plan\""), std::string::npos);
  EXPECT_NE(first_line.find("hop_bottleneck_sweep"), std::string::npos);
}

TEST_F(LedgerTest, ReplayReconstructsShardState) {
  {
    Ledger ledger(path_, sample_plan(), false);
    ledger.record_launch(0, 1);
    ledger.record_done(0, 1, "parts/a.csv");
    ledger.record_launch(1, 1);
    ledger.record_fail(1, 1, "exit code 137");
    ledger.record_launch(1, 2);
    // killed here — shard 1 attempt 2 was in flight
  }
  Ledger resumed(path_, sample_plan(), /*resume_expected=*/true);
  EXPECT_TRUE(resumed.resumed());
  ASSERT_EQ(resumed.replay().size(), 2u);
  EXPECT_TRUE(resumed.replay()[0].done);
  EXPECT_FALSE(resumed.replay()[1].done);
  EXPECT_EQ(resumed.replay()[1].failures, 1);
  EXPECT_EQ(resumed.replay()[1].last_attempt, 2);
}

TEST_F(LedgerTest, ExhaustedIsReplayed) {
  {
    Ledger ledger(path_, sample_plan(), false);
    for (int attempt = 1; attempt <= 3; ++attempt) {
      ledger.record_launch(1, attempt);
      ledger.record_fail(1, attempt, "exit code 1");
    }
    ledger.record_exhausted(1);
  }
  Ledger resumed(path_, sample_plan(), true);
  EXPECT_TRUE(resumed.replay()[1].exhausted);
  EXPECT_EQ(resumed.replay()[1].failures, 3);
}

TEST_F(LedgerTest, TornFinalLineIsTolerated) {
  {
    Ledger ledger(path_, sample_plan(), false);
    ledger.record_launch(0, 1);
    ledger.record_done(0, 1, "parts/a.csv");
  }
  // Simulate a crash mid-append: truncated JSON, no trailing newline.
  {
    std::ofstream out(path_, std::ios::app);
    out << "{\"event\":\"fail\",\"sha";
  }
  Ledger resumed(path_, sample_plan(), true);
  EXPECT_TRUE(resumed.replay()[0].done);
  EXPECT_EQ(resumed.replay()[1].failures, 0);  // the torn record is dropped
}

TEST_F(LedgerTest, CorruptionBeforeTheFinalLineIsAnError) {
  {
    Ledger ledger(path_, sample_plan(), false);
    ledger.record_launch(0, 1);
  }
  {
    std::ofstream out(path_, std::ios::app);
    out << "garbage not json\n";
    out << "{\"event\":\"done\",\"shard\":0,\"attempt\":1}\n";
  }
  EXPECT_THROW(Ledger(path_, sample_plan(), true), std::runtime_error);
}

TEST_F(LedgerTest, ResumeWithDifferentPlanIsRefused) {
  { Ledger ledger(path_, sample_plan(), false); }
  LedgerPlan other = sample_plan();
  other.seed = 43;
  EXPECT_THROW(Ledger(path_, other, true), std::invalid_argument);

  LedgerPlan reshard = sample_plan();
  reshard.shards = {{0, 1}, {1, 4}};
  EXPECT_THROW(Ledger(path_, reshard, true), std::invalid_argument);
}

TEST_F(LedgerTest, SeedPast2To53ResumesExactly) {
  LedgerPlan plan = sample_plan();
  plan.seed = (1ULL << 60) + 3;  // past 2^53: a double would round it
  {
    Ledger ledger(path_, plan, false);
    ledger.record_launch(0, 1);
    ledger.record_done(0, 1, "parts/a.csv");
  }
  Ledger resumed(path_, plan, true);
  EXPECT_TRUE(resumed.resumed());
  EXPECT_TRUE(resumed.replay()[0].done);
  // The next seed rounds to the same double; it is still a different sweep.
  LedgerPlan next = plan;
  next.seed += 1;
  EXPECT_THROW(Ledger(path_, next, true), std::invalid_argument);
}

TEST_F(LedgerTest, NumericSeedOfAnOlderLedgerStillResumes) {
  std::ofstream(path_) << R"({"event":"plan","scale":0.1,"scenario":"hop_bottleneck_sweep",)"
                       << R"("seed":42,"shards":[[0,2],[2,4]],"total_cells":4})" << "\n";
  Ledger resumed(path_, sample_plan(), true);
  EXPECT_TRUE(resumed.resumed());
}

TEST_F(LedgerTest, ExistingLedgerWithoutResumeIsRefused) {
  { Ledger ledger(path_, sample_plan(), false); }
  EXPECT_THROW(Ledger(path_, sample_plan(), false), std::invalid_argument);
}

TEST_F(LedgerTest, ResumeOnMissingFileStartsFresh) {
  Ledger ledger(path_, sample_plan(), /*resume_expected=*/true);
  EXPECT_FALSE(ledger.resumed());
}

}  // namespace
}  // namespace sss::orchestrator
