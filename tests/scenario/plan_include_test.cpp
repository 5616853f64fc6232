// Plan-file "include" composition: a plan names a base plan, overrides base
// workload fields and axes by identity, and the loader detects cycles and
// conflicting overrides with specific errors.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "scenario/plan.hpp"
#include "trace/atomic_io.hpp"
#include "trace/json.hpp"

namespace sss::scenario {
namespace {

namespace fs = std::filesystem;

class PlanIncludeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sss_plan_include_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);

    // A complete, loadable base plan: two axes (one keyed, one tuples) over
    // a real scenario.
    ExperimentPlan base;
    base.scenario = "baseline";
    base.repeat = 2;
    base.axes.push_back(
        ParamAxis::list("link_gbps", {10.0, 25.0}, "bw="));
    base.axes.push_back(ParamAxis::tuples(
        "site", {{"near", {"rtt_ms=1"}}, {"far", {"rtt_ms=50"}}}));
    write_file("base.json", base.to_json_text());
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write_file(const std::string& name, const std::string& text) {
    trace::write_text_file_atomic((dir_ / name).string(), text);
  }
  [[nodiscard]] std::string path_of(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(PlanIncludeTest, PlainPlanStillLoads) {
  const ExperimentPlan plan = load_plan_file(path_of("base.json"));
  EXPECT_EQ(plan.scenario, "baseline");
  ASSERT_EQ(plan.axes.size(), 2u);
}

TEST_F(PlanIncludeTest, IncludeInheritsEverythingWhenFragmentIsEmpty) {
  write_file("child.json", "{\"include\": \"base.json\"}\n");
  const ExperimentPlan base = load_plan_file(path_of("base.json"));
  const ExperimentPlan child = load_plan_file(path_of("child.json"));
  EXPECT_EQ(child.to_json_text(), base.to_json_text());
}

TEST_F(PlanIncludeTest, FragmentOverridesScalarFieldsWholesale) {
  write_file("child.json",
             "{\"include\": \"base.json\", \"repeat\": 7, "
             "\"scenario\": \"congestion\"}\n");
  const ExperimentPlan child = load_plan_file(path_of("child.json"));
  EXPECT_EQ(child.repeat, 7);
  EXPECT_EQ(child.scenario, "congestion");
  EXPECT_EQ(child.axes.size(), 2u);  // axes inherited untouched
}

TEST_F(PlanIncludeTest, BaseFieldsMergeKeyByKey) {
  // Override one workload field; every other base field must survive from
  // the included plan rather than reset to defaults.
  const ExperimentPlan base = load_plan_file(path_of("base.json"));
  trace::JsonValue fragment = trace::JsonValue::object();
  fragment["include"] = "base.json";
  trace::JsonValue base_patch = trace::JsonValue::object();
  base_patch["duration_s"] = 123.0;
  fragment["base"] = base_patch;
  write_file("child.json", fragment.dump(2) + "\n");

  const ExperimentPlan child = load_plan_file(path_of("child.json"));
  EXPECT_DOUBLE_EQ(child.base.duration.seconds(), 123.0);
  // Unrelated base fields inherited, not defaulted.
  EXPECT_DOUBLE_EQ(child.base.link.capacity.bps(), base.base.link.capacity.bps());
  EXPECT_EQ(child.base.concurrency, base.base.concurrency);
}

TEST_F(PlanIncludeTest, AxisOverridesByIdentityAndAppendsOtherwise) {
  // Replace the bandwidth axis (same key), append a fresh axis; the tuples
  // axis is untouched and keeps its position.
  write_file("child.json",
             "{\"include\": \"base.json\", \"axes\": ["
             "{\"kind\": \"list\", \"key\": \"link_gbps\", "
             "\"values\": [\"100\"], \"label_prefix\": \"bw=\"},"
             "{\"kind\": \"linspace\", \"key\": \"concurrency\", "
             "\"from\": 1, \"to\": 4, \"count\": 4}"
             "]}\n");
  const ExperimentPlan child = load_plan_file(path_of("child.json"));
  ASSERT_EQ(child.axes.size(), 3u);
  EXPECT_EQ(child.axes[0].key, "link_gbps");
  ASSERT_EQ(child.axes[0].values.size(), 1u);
  EXPECT_EQ(child.axes[0].values[0], "100");  // replaced in place
  EXPECT_EQ(child.axes[1].name, "site");      // untouched, position kept
  EXPECT_EQ(child.axes[2].key, "concurrency");  // appended
}

TEST_F(PlanIncludeTest, TuplesAxisOverridesByName) {
  write_file("child.json",
             "{\"include\": \"base.json\", \"axes\": ["
             "{\"kind\": \"tuples\", \"name\": \"site\", \"points\": ["
             "{\"label\": \"lan\", \"set\": [\"rtt_ms=0.1\"]}"
             "]}]}\n");
  const ExperimentPlan child = load_plan_file(path_of("child.json"));
  ASSERT_EQ(child.axes.size(), 2u);
  ASSERT_EQ(child.axes[1].points.size(), 1u);
  EXPECT_EQ(child.axes[1].points[0].label, "lan");
}

TEST_F(PlanIncludeTest, NestedIncludesComposeInOrder) {
  write_file("mid.json", "{\"include\": \"base.json\", \"repeat\": 5}\n");
  write_file("leaf.json",
             "{\"include\": \"mid.json\", \"scenario\": \"congestion\"}\n");
  const ExperimentPlan leaf = load_plan_file(path_of("leaf.json"));
  EXPECT_EQ(leaf.repeat, 5);                  // from mid
  EXPECT_EQ(leaf.scenario, "congestion");     // from leaf
  EXPECT_EQ(leaf.axes.size(), 2u);            // from base
}

TEST_F(PlanIncludeTest, IncludeResolvesRelativeToIncludingFile) {
  fs::create_directories(dir_ / "sub");
  write_file("sub/child.json", "{\"include\": \"../base.json\", \"repeat\": 9}\n");
  const ExperimentPlan child = load_plan_file(path_of("sub/child.json"));
  EXPECT_EQ(child.repeat, 9);
}

TEST_F(PlanIncludeTest, CycleErrorNamesTheChain) {
  write_file("a.json", "{\"include\": \"b.json\"}\n");
  write_file("b.json", "{\"include\": \"a.json\"}\n");
  try {
    (void)load_plan_file(path_of("a.json"));
    FAIL() << "expected cycle error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("include cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("a.json -> b.json -> a.json"), std::string::npos) << what;
  }
}

TEST_F(PlanIncludeTest, SelfIncludeIsACycle) {
  write_file("self.json", "{\"include\": \"self.json\"}\n");
  try {
    (void)load_plan_file(path_of("self.json"));
    FAIL() << "expected cycle error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("include cycle"), std::string::npos);
  }
}

TEST_F(PlanIncludeTest, DuplicateAxisOverrideIsAConflictError) {
  write_file("child.json",
             "{\"include\": \"base.json\", \"axes\": ["
             "{\"kind\": \"list\", \"key\": \"link_gbps\", \"values\": [\"1\"]},"
             "{\"kind\": \"list\", \"key\": \"link_gbps\", \"values\": [\"2\"]}"
             "]}\n");
  try {
    (void)load_plan_file(path_of("child.json"));
    FAIL() << "expected conflict error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conflict"), std::string::npos) << what;
    EXPECT_NE(what.find("link_gbps"), std::string::npos) << what;
  }
}

TEST_F(PlanIncludeTest, MissingIncludeTargetErrorNamesTheFile) {
  write_file("child.json", "{\"include\": \"missing.json\"}\n");
  try {
    (void)load_plan_file(path_of("child.json"));
    FAIL() << "expected open error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing.json"), std::string::npos);
  }
}

TEST_F(PlanIncludeTest, NonStringIncludeIsAnError) {
  write_file("child.json", "{\"include\": 42}\n");
  EXPECT_THROW((void)load_plan_file(path_of("child.json")), std::runtime_error);
}

TEST_F(PlanIncludeTest, FromJsonRejectsUnresolvedInclude) {
  try {
    (void)ExperimentPlan::from_json(
        trace::JsonValue::parse("{\"include\": \"base.json\"}"));
    FAIL() << "expected include-rejection error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("include"), std::string::npos);
  }
}

TEST_F(PlanIncludeTest, ComposedPlanRoundTripsThroughJson) {
  write_file("child.json",
             "{\"include\": \"base.json\", \"repeat\": 3, \"axes\": ["
             "{\"kind\": \"list\", \"key\": \"link_gbps\", "
             "\"values\": [\"40\"], \"label_prefix\": \"bw=\"}]}\n");
  const ExperimentPlan child = load_plan_file(path_of("child.json"));
  // The composed plan is a plain plan: dump + reload is identity.
  const ExperimentPlan reloaded =
      ExperimentPlan::from_json(trace::JsonValue::parse(child.to_json_text()));
  EXPECT_EQ(reloaded.to_json_text(), child.to_json_text());
}

}  // namespace
}  // namespace sss::scenario
