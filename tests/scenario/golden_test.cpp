// Golden-output test for a migrated bench: the ablation_fluid_vs_packet
// scenario at scale 0.1 / seed 42 must reproduce the recorded rows
// byte-for-byte, at any thread count.
//
// The golden rows pin three things at once: the simulator's bit-exact
// determinism, the SweepExecutor's thread-count invariance, and the
// scenario row formatting (what lands in the exported CSV).  If a change
// deliberately alters simulation behaviour or formatting, regenerate with
// this one command:
//   scenario_runner --run ablation_fluid_vs_packet --scale 0.1 --seed 42
//                   --csv-dir <dir>
// and update kGoldenRows below.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace sss::scenario {
namespace {

const char* const kGoldenHeader =
    "concurrency,offered_load,fluid_worst_s,packet_worst_s,worst_gap,"
    "fluid_mean_s,packet_mean_s,mean_gap";

const std::vector<std::string> kGoldenRows = {
    "1,0.16,0.168,0.320105,1.90539,0.168,0.320105,1.90539",
    "2,0.32,0.328,0.521543,1.59007,0.328,0.519645,1.58428",
    "3,0.48,0.488,0.869298,1.78135,0.488,0.765919,1.56951",
    "4,0.64,0.648,0.914561,1.41136,0.648,0.912493,1.40817",
    "5,0.8,0.808,1.43978,1.78191,0.808,1.07578,1.33141",
    "6,0.96,0.968,1.48307,1.5321,0.968,1.3257,1.36953",
    "7,1.12,1.128,1.53164,1.35784,1.128,1.46244,1.29649",
    "8,1.28,1.288,2.78688,2.16372,1.288,2.78061,2.15886",
};

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += fields[i];
  }
  return out;
}

ScenarioOutput run_golden(int threads) {
  register_builtin_scenarios();
  const ScenarioSpec* spec =
      ScenarioRegistry::global().find("ablation_fluid_vs_packet");
  EXPECT_NE(spec, nullptr);
  ScenarioContext ctx;
  ctx.scale = 0.1;
  ctx.seed = 42;
  ctx.threads = threads;
  return execute_scenario(*spec, ctx);
}

TEST(GoldenOutput, AblationFluidVsPacketMatchesRecordedRows) {
  const ScenarioOutput output = run_golden(1);
  EXPECT_EQ(join(output.header), kGoldenHeader);
  ASSERT_EQ(output.rows.size(), kGoldenRows.size());
  for (std::size_t i = 0; i < output.rows.size(); ++i) {
    EXPECT_EQ(join(output.rows[i]), kGoldenRows[i]) << "row " << i;
  }
}

TEST(GoldenOutput, IdenticalAtOneAndManyThreads) {
  const ScenarioOutput serial = run_golden(1);
  const ScenarioOutput parallel = run_golden(4);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(join(serial.rows[i]), join(parallel.rows[i])) << "row " << i;
  }
}

}  // namespace
}  // namespace sss::scenario
