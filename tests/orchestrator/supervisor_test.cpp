// End-to-end tests for the fault-tolerant sweep orchestrator: real
// scenario_runner worker subprocesses, injected crashes/hangs/corruption,
// and the byte-identical-merge determinism contract.
//
// The reference output is the committed golden for hop_bottleneck_sweep
// (4 cells, scale 0.1, seed 42, threads 1) — the same bytes
// tests/scenario/topology_differential_test.cpp pins for the unsharded
// run, so "orchestrated merge == golden" IS "sharded == unsharded".
#include "orchestrator/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "obs/manifest.hpp"
#include "trace/atomic_io.hpp"
#include "trace/json.hpp"

namespace sss::orchestrator {
namespace {

namespace fs = std::filesystem;

constexpr const char* kRunner = SSS_BINARY_DIR "/bench/scenario_runner";
constexpr const char* kGolden =
    SSS_SOURCE_DIR "/tests/data/topology_golden/hop_bottleneck_sweep.csv";
constexpr const char* kScenario = "hop_bottleneck_sweep";  // 4 grid cells

std::string read_file(const std::string& path) {
  return trace::read_text_file(path);
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fs::exists(kRunner)) {
      GTEST_SKIP() << "scenario_runner not built at " << kRunner;
    }
    dir_ = fs::temp_directory_path() /
           ("sss_supervisor_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    ::unsetenv("SSS_FAULT_INJECTION");
  }
  void TearDown() override {
    ::unsetenv("SSS_FAULT_INJECTION");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // The baseline config every test starts from: 2 shards, 2 workers,
  // golden-matching context, fast retries.
  OrchestratorConfig base_config() {
    OrchestratorConfig config;
    config.scenario = kScenario;
    config.runner = kRunner;
    config.workdir = (dir_ / "work").string();
    config.shards = 2;
    config.max_parallel = 2;
    config.scale = 0.1;
    config.seed = 42;
    config.threads_per_worker = 1;
    config.retry.base_ms = 10;  // keep failure tests fast
    config.quiet = true;
    return config;
  }

  // Arm the one-shot fault-injection gate and return the arm-file path.
  std::string arm_fault() {
    const std::string arm = (dir_ / "fault.arm").string();
    std::ofstream(arm) << "armed\n";
    ::setenv("SSS_FAULT_INJECTION", arm.c_str(), 1);
    return arm;
  }

  fs::path dir_;
};

TEST_F(SupervisorTest, CleanRunMergesByteIdenticalToUnshardedGolden) {
  const OrchestratorReport report = orchestrate(base_config());
  EXPECT_EQ(report.exit_code, 0);
  ASSERT_FALSE(report.merged_csv.empty());
  EXPECT_EQ(read_file(report.merged_csv), read_file(kGolden));
  EXPECT_TRUE(report.missing_cells.empty());
}

TEST_F(SupervisorTest, InjectedCrashIsRetriedAndStillMatchesGolden) {
  arm_fault();
  OrchestratorConfig config = base_config();
  // The worker owning global cell 1 SIGKILLs itself mid-run on its first
  // attempt; the arm file is consumed, so the retry runs clean.
  config.worker_args = {"--inject-fault", "crash@cell=1"};
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(read_file(report.merged_csv), read_file(kGolden));
  int total_attempts = 0;
  for (const ShardOutcome& shard : report.shards) total_attempts += shard.attempts;
  EXPECT_GT(total_attempts, static_cast<int>(report.shards.size()));
}

TEST_F(SupervisorTest, TruncatedArtifactIsRejectedAndRetried) {
  arm_fault();
  OrchestratorConfig config = base_config();
  // The worker exits 0 but its CSV is cut short: only artifact validation
  // can catch this, and it must, loudly, then retry.
  config.worker_args = {"--inject-fault", "truncate@cell=1"};
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(read_file(report.merged_csv), read_file(kGolden));
}

TEST_F(SupervisorTest, HungWorkerIsKilledAtTheDeadlineAndRetried) {
  // The deadline follows this host's speed: 4x a timed clean orchestrate of
  // the same config (at least 1.5 s), so a worker that a slow host or a
  // sanitizer holds up is not mistaken for a hung one.
  OrchestratorConfig clean = base_config();
  clean.workdir = (dir_ / "clean").string();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(orchestrate(clean).exit_code, 0);
  const double clean_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  arm_fault();
  OrchestratorConfig config = base_config();
  config.worker_args = {"--inject-fault", "hang@cell=2"};
  config.timeout_s = std::max(1.5, 4.0 * clean_s);
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(read_file(report.merged_csv), read_file(kGolden));
  const std::string ledger = read_file(config.workdir + "/ledger.jsonl");
  EXPECT_NE(ledger.find(R"("detail":"deadline exceeded)"), std::string::npos) << ledger;
}

TEST_F(SupervisorTest, ExhaustedShardDegradesToPartialMergeWithReport) {
  OrchestratorConfig config = base_config();
  // Command-template backend whose shard [2, 4) always fails — retries
  // can never save it, so the sweep must degrade gracefully.
  config.command_template = "if [ {begin} -ge 2 ]; then exit 7; fi; {command}";
  config.retry.max_attempts = 2;
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 3);

  // The surviving shard is merged...
  ASSERT_FALSE(report.merged_csv.empty());
  const std::string golden = read_file(kGolden);
  const std::string partial = read_file(report.merged_csv);
  EXPECT_TRUE(golden.starts_with(partial));  // rows 0-1 only, byte-exact
  EXPECT_LT(partial.size(), golden.size());

  // ...and the missing cells are named machine-readably.
  ASSERT_FALSE(report.missing_cells_path.empty());
  const trace::JsonValue doc =
      trace::JsonValue::parse(read_file(report.missing_cells_path));
  EXPECT_EQ(doc.at("scenario").as_string(), kScenario);
  EXPECT_EQ(doc.at("total_cells").as_double(), 4.0);
  const auto& missing = doc.at("missing_cells").as_array();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].as_double(), 2.0);
  EXPECT_EQ(missing[1].as_double(), 3.0);
  EXPECT_EQ(report.missing_cells, (std::vector<std::size_t>{2, 3}));
}

TEST_F(SupervisorTest, PartialMergeLeavesAMiddleGap) {
  OrchestratorConfig config = base_config();
  // Four one-cell shards; the one for cell 1 always fails.  The parts on
  // either side of the gap merge in range order.
  config.shards = 4;
  config.command_template = "if [ {begin} -eq 1 ]; then exit 7; fi; {command}";
  config.retry.max_attempts = 2;
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 3);

  std::string expected = read_file(kGolden);
  const std::size_t row1 = expected.find('\n', expected.find('\n') + 1) + 1;
  expected.erase(row1, expected.find('\n', row1) + 1 - row1);
  ASSERT_FALSE(report.merged_csv.empty());
  EXPECT_EQ(read_file(report.merged_csv), expected);

  const trace::JsonValue doc =
      trace::JsonValue::parse(read_file(report.missing_cells_path));
  const auto& missing = doc.at("missing_cells").as_array();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].as_double(), 1.0);
  const auto& exhausted = doc.at("exhausted_shards").as_array();
  ASSERT_EQ(exhausted.size(), 1u);
  EXPECT_EQ(exhausted[0].as_double(), 1.0);
  EXPECT_EQ(report.missing_cells, (std::vector<std::size_t>{1}));
}

TEST_F(SupervisorTest, SeedPast2To53RunsAndResumes) {
  OrchestratorConfig config = base_config();
  config.seed = (1ULL << 60) + 3;  // past 2^53: a double would round it
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 0);
  ASSERT_FALSE(report.merged_csv.empty());
  const std::string merged = read_file(report.merged_csv);
  EXPECT_EQ(std::count(merged.begin(), merged.end(), '\n'), 5) << merged;  // header + 4
  config.resume = true;
  const OrchestratorReport resumed = orchestrate(config);
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(read_file(resumed.merged_csv), merged);
}

TEST_F(SupervisorTest, ResumeSkipsFinishedShardsEntirely) {
  OrchestratorConfig config = base_config();
  const OrchestratorReport first = orchestrate(config);
  ASSERT_EQ(first.exit_code, 0);

  // A killed-after-completion orchestrator restarts: nothing relaunches.
  const std::string ledger_path = config.workdir + "/ledger.jsonl";
  const auto size_before = fs::file_size(ledger_path);
  config.resume = true;
  const OrchestratorReport second = orchestrate(config);
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(fs::file_size(ledger_path), size_before);  // no new journal events
  EXPECT_EQ(read_file(second.merged_csv), read_file(kGolden));
}

TEST_F(SupervisorTest, ResumeRerunsAShardWhosePromotedPartLostARow) {
  OrchestratorConfig config = base_config();
  ASSERT_EQ(orchestrate(config).exit_code, 0);

  // Cut the last row off a promoted part after the ledger recorded it done:
  // the resumed sweep must not merge 3 rows as 4 cells.
  const std::string part = config.workdir + "/parts/hop_bottleneck_sweep.cells0-2of4.csv";
  std::string text = read_file(part);
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  std::ofstream(part, std::ios::trunc) << text;
  config.resume = true;
  const OrchestratorReport resumed = orchestrate(config);
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(read_file(resumed.merged_csv), read_file(kGolden));
  // Shard 0 was launched again; shard 1 was trusted.
  const std::string ledger = read_file(config.workdir + "/ledger.jsonl");
  EXPECT_NE(ledger.find(R"("attempt":2,"event":"launch","shard":0)"), std::string::npos)
      << ledger;
  EXPECT_EQ(ledger.find(R"("attempt":2,"event":"launch","shard":1)"), std::string::npos)
      << ledger;
}

TEST_F(SupervisorTest, FreshWorkdirRefusesAnExistingLedgerWithoutResume) {
  OrchestratorConfig config = base_config();
  ASSERT_EQ(orchestrate(config).exit_code, 0);
  EXPECT_THROW((void)orchestrate(config), std::invalid_argument);
}

TEST_F(SupervisorTest, CostModelPartitionStillMergesByteIdentical) {
  // A skewed cost manifest moves the shard boundary; the merge contract
  // must hold for ANY contiguous partition.
  obs::RunManifest manifest;
  manifest.scenario = kScenario;
  manifest.scale = 0.1;
  manifest.seed = 42;
  manifest.total_cells = 4;
  for (std::size_t i = 0; i < 4; ++i) {
    obs::CellMetrics cell;
    cell.index = i;
    cell.label = "cell" + std::to_string(i);
    cell.wall_ms = i == 0 ? 100.0 : 1.0;  // cell 0 dominates
    manifest.cells.push_back(cell);
  }
  const std::string cost_path = (dir_ / "costs.json").string();
  trace::write_text_file_atomic(cost_path, manifest.to_json_text());

  OrchestratorConfig config = base_config();
  config.cost_model_path = cost_path;
  const OrchestratorReport report = orchestrate(config);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_EQ(read_file(report.merged_csv), read_file(kGolden));
  // The hot cell got its own shard.
  ASSERT_FALSE(report.shards.empty());
  EXPECT_EQ(report.shards.front().range, (CellRange{0, 1}));
}

TEST_F(SupervisorTest, UnknownScenarioIsAConfigurationError) {
  OrchestratorConfig config = base_config();
  config.scenario = "no_such_scenario";
  EXPECT_THROW((void)orchestrate(config), std::invalid_argument);
}

}  // namespace
}  // namespace sss::orchestrator
