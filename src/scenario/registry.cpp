#include "scenario/registry.hpp"

#include <stdexcept>

#include "scenario/plan.hpp"
#include "scenario/scenarios.hpp"

namespace sss::scenario {

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("ScenarioRegistry: scenario name must not be empty");
  }
  if (spec.plan != nullptr && spec.plan->scenario != spec.name) {
    throw std::invalid_argument("ScenarioRegistry: scenario '" + spec.name +
                                "' carries a plan for '" + spec.plan->scenario + "'");
  }
  if (spec.has_declarative_output()) {
    // The plan's output spec renders the table; a second table-builder
    // would fight it.  Aggregate notes belong in `annotate`.
    if (spec.analyze) {
      throw std::invalid_argument("ScenarioRegistry: scenario '" + spec.name +
                                  "' has both declarative output and analyze");
    }
  } else {
    if (!spec.analyze) {
      throw std::invalid_argument("ScenarioRegistry: scenario '" + spec.name +
                                  "' has no analyze function and no declarative output");
    }
    if (spec.annotate) {
      throw std::invalid_argument("ScenarioRegistry: scenario '" + spec.name +
                                  "' has annotate but no declarative output");
    }
  }
  const auto [it, inserted] = specs_.emplace(spec.name, std::move(spec));
  if (!inserted) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" + it->first + "'");
  }
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  const auto it = specs_.find(name);
  return it == specs_.end() ? nullptr : &it->second;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::all() const {
  std::vector<const ScenarioSpec*> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) out.push_back(&spec);
  return out;
}

void register_builtin_scenarios() {
  static const bool once = [] {
    ScenarioRegistry& r = ScenarioRegistry::global();
    register_figure_scenarios(r);
    register_ablation_scenarios(r);
    register_case_study_scenarios(r);
    register_model_scenarios(r);
    register_live_scenarios(r);
    register_stress_scenarios(r);
    register_topology_scenarios(r);
    register_calibration_scenarios(r);
    register_facility_scenarios(r);
    return true;
  }();
  (void)once;
}

}  // namespace sss::scenario
