// Load-generator tests: the percentile math pinned against an independent
// reference implementation, plus one short open-loop run against a real
// in-process server (modest rate — CI runs on one core).
#include "serve/loadgen.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "trace/atomic_io.hpp"
#include "trace/json.hpp"

namespace sss::serve {
namespace {

namespace fs = std::filesystem;

// Independent reference for the numpy-linear quantile: written from the
// definition, deliberately NOT calling stats::quantile — the test pins the
// loadgen's percentiles against a second implementation, not against itself.
double reference_quantile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  if (sample.size() == 1) return sample[0];
  const double position = q * static_cast<double>(sample.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const auto upper = static_cast<std::size_t>(std::ceil(position));
  const double fraction = position - std::floor(position);
  return sample[lower] + fraction * (sample[upper] - sample[lower]);
}

TEST(SummarizeLatenciesTest, EmptySampleIsAllZero) {
  const LatencySummary summary = summarize_latencies({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.p50_s, 0.0);
  EXPECT_DOUBLE_EQ(summary.p999_s, 0.0);
  EXPECT_DOUBLE_EQ(summary.max_s, 0.0);
}

TEST(SummarizeLatenciesTest, SingleElementIsEveryStatistic) {
  const LatencySummary summary = summarize_latencies({0.25});
  EXPECT_EQ(summary.count, 1u);
  EXPECT_DOUBLE_EQ(summary.min_s, 0.25);
  EXPECT_DOUBLE_EQ(summary.mean_s, 0.25);
  EXPECT_DOUBLE_EQ(summary.p50_s, 0.25);
  EXPECT_DOUBLE_EQ(summary.p999_s, 0.25);
  EXPECT_DOUBLE_EQ(summary.max_s, 0.25);
}

TEST(SummarizeLatenciesTest, MatchesReferenceOnKnownSample) {
  // 1..100 in scrambled order: quantiles have closed forms under
  // numpy-linear interpolation (p50 = 50.5, p99 = 99.01, p999 = 99.901).
  std::vector<double> sample;
  for (int i = 100; i >= 1; --i) sample.push_back(static_cast<double>(i));
  const LatencySummary summary = summarize_latencies(sample);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.min_s, 1.0);
  EXPECT_DOUBLE_EQ(summary.max_s, 100.0);
  EXPECT_DOUBLE_EQ(summary.mean_s, 50.5);
  EXPECT_DOUBLE_EQ(summary.p50_s, 50.5);
  EXPECT_DOUBLE_EQ(summary.p90_s, 90.1);
  EXPECT_DOUBLE_EQ(summary.p99_s, 99.01);
  EXPECT_DOUBLE_EQ(summary.p999_s, 99.901);
}

TEST(SummarizeLatenciesTest, MatchesReferenceOnPseudoRandomSamples) {
  // Deterministic xorshift so the pin is reproducible; several sizes so the
  // interpolation hits both exact and fractional index positions.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next_uniform = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 1'000'000) / 1e6;
  };
  for (const std::size_t size : {2u, 7u, 99u, 1000u, 4096u}) {
    std::vector<double> sample;
    sample.reserve(size);
    for (std::size_t i = 0; i < size; ++i) sample.push_back(next_uniform());
    const LatencySummary summary = summarize_latencies(sample);
    EXPECT_DOUBLE_EQ(summary.p50_s, reference_quantile(sample, 0.50)) << size;
    EXPECT_DOUBLE_EQ(summary.p90_s, reference_quantile(sample, 0.90)) << size;
    EXPECT_DOUBLE_EQ(summary.p99_s, reference_quantile(sample, 0.99)) << size;
    EXPECT_DOUBLE_EQ(summary.p999_s, reference_quantile(sample, 0.999)) << size;
    EXPECT_DOUBLE_EQ(summary.min_s, *std::min_element(sample.begin(), sample.end()));
    EXPECT_DOUBLE_EQ(summary.max_s, *std::max_element(sample.begin(), sample.end()));
    EXPECT_LE(summary.p50_s, summary.p99_s);
    EXPECT_LE(summary.p99_s, summary.p999_s);
    EXPECT_LE(summary.p999_s, summary.max_s);
  }
}

TEST(LoadConfigValidationTest, RejectsNonsenseConfigs) {
  LoadConfig config;
  config.port = 1;  // any nonzero port; validation precedes connect
  config.request.facility = "aps";
  config.target_rate = 0.0;
  EXPECT_THROW((void)run_load(config), std::exception);

  config = LoadConfig{};
  config.port = 1;
  config.request.facility = "aps";
  config.warmup_s = 3.0;
  config.cooldown_s = 3.0;
  config.duration_s = 5.0;  // warmup + cooldown swallow the whole window
  EXPECT_THROW((void)run_load(config), std::exception);
}

// The report names the run's seed exactly, past 2^53 too, in the uint64
// codec plan, manifest and ledger JSON share.
TEST(LoadReportJson, SeedRoundTripsExactly) {
  LoadResult result;
  result.seed = (std::uint64_t{1} << 60) + 3;
  const trace::JsonValue reparsed =
      trace::JsonValue::parse(load_result_json(result).dump(2));
  EXPECT_EQ(reparsed.find("config")->find("seed")->as_uint64(), result.seed);
}

class LoadgenEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sss_loadgen_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);

    trace::JsonValue report = trace::JsonValue::object();
    report["format"] = trace::JsonValue("sss.calibration-report/1");
    report["facility"] = trace::JsonValue("aps");
    trace::JsonValue params = trace::JsonValue::object();
    params["alpha"] = trace::JsonValue(0.85);
    params["theta"] = trace::JsonValue(1.25);
    params["bandwidth_bytes_per_s"] = trace::JsonValue(3.125e9);
    params["s_unit_bytes"] = trace::JsonValue(5.0e8);
    params["complexity_flop_per_byte"] = trace::JsonValue(1.0);
    params["r_local_flop_per_s"] = trace::JsonValue(1.0e12);
    params["r_remote_flop_per_s"] = trace::JsonValue(1.0e13);
    report["model_parameters"] = params;
    report["operating_utilization"] = trace::JsonValue(0.64);
    trace::JsonValue profile = trace::JsonValue::array();
    trace::JsonValue point = trace::JsonValue::object();
    point["utilization"] = trace::JsonValue(0.64);
    point["sss"] = trace::JsonValue(3.6);
    point["t_worst_s"] = trace::JsonValue(0.576);
    point["t_theoretical_s"] = trace::JsonValue(0.16);
    point["t_mean_s"] = trace::JsonValue(0.2);
    point["t_io_s"] = trace::JsonValue(0.0);
    profile.push_back(point);
    report["profile"] = profile;
    trace::write_text_file_atomic((dir_ / "aps.json").string(), report.dump(2) + "\n");

    ServerConfig config;
    config.profile_dir = dir_.string();
    config.workers = 1;
    server_ = std::make_unique<DecideServer>(config);
    server_->start();
  }
  void TearDown() override {
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  std::unique_ptr<DecideServer> server_;
};

TEST_F(LoadgenEndToEndTest, ModestRateRunIsCleanAndReportIsWellFormed) {
  LoadConfig config;
  config.port = server_->port();
  config.request.facility = "aps";
  config.target_rate = 800.0;
  config.duration_s = 1.5;
  config.warmup_s = 0.3;
  config.cooldown_s = 0.2;
  config.connections = 2;

  const LoadResult result = run_load(config);
  EXPECT_EQ(result.errors_total, 0u);
  EXPECT_GT(result.measured_count, 0u);
  EXPECT_GT(result.scheduled_total, result.measured_count);  // warmup excluded
  EXPECT_EQ(result.responses_total, result.scheduled_total);  // nothing lost
  EXPECT_GT(result.latency.p50_s, 0.0);
  EXPECT_LE(result.latency.p50_s, result.latency.p99_s);
  EXPECT_LE(result.latency.p99_s, result.latency.p999_s);
  EXPECT_EQ(result.generation_min, 1u);
  EXPECT_EQ(result.generation_max, 1u);
  EXPECT_EQ(result.decided_local + result.decided_stream + result.decided_stage,
            result.measured_count);
  EXPECT_NEAR(result.measure_window_s, 1.0, 1e-9);

  const trace::JsonValue report = load_result_json(result);
  EXPECT_EQ(report.find("format")->as_string(), "sss.load-report/1");
  EXPECT_EQ(report.find("volume")->find("errors_total")->as_double(), 0.0);
  EXPECT_GT(report.find("latency")->find("p99_s")->as_double(), 0.0);
  EXPECT_EQ(report.find("rate")->find("saturated")->is_bool(), true);
  // dump/parse round trip (the tool writes this file atomically).
  const trace::JsonValue reparsed = trace::JsonValue::parse(report.dump(2));
  EXPECT_EQ(reparsed.find("generation")->find("min")->as_double(), 1.0);
}

TEST_F(LoadgenEndToEndTest, SweepCsvHasOneRowPerRate) {
  std::string csv = sweep_csv_header();
  const auto header_columns =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), ',')) + 1;
  for (const double rate : {300.0, 600.0}) {
    LoadConfig config;
    config.port = server_->port();
    config.request.facility = "aps";
    config.target_rate = rate;
    config.duration_s = 0.8;
    config.warmup_s = 0.2;
    config.cooldown_s = 0.1;
    config.connections = 2;
    const LoadResult result = run_load(config);
    const std::string row = sweep_csv_row(result);
    EXPECT_EQ(static_cast<std::size_t>(std::count(row.begin(), row.end(), ',')) + 1,
              header_columns);
    csv += row;
  }
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows
}

TEST_F(LoadgenEndToEndTest, ErrorResponsesAreCountedNotFatal) {
  LoadConfig config;
  config.port = server_->port();
  config.request.facility = "unknown-facility";
  config.target_rate = 400.0;
  config.duration_s = 0.6;
  config.warmup_s = 0.1;
  config.cooldown_s = 0.1;
  config.connections = 1;

  const LoadResult result = run_load(config);
  EXPECT_GT(result.errors_total, 0u);
  EXPECT_EQ(result.measured_count, 0u);  // no ok responses to measure
}

}  // namespace
}  // namespace sss::serve
