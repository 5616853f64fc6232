// registry.hpp — named scenarios, one registry.
//
// Scenario definitions live in src/scenario/scenarios_*.cpp; each file
// exposes a `register_*` hook called by `register_builtin_scenarios()`
// (explicit calls rather than static initializers, so scenarios survive
// static-library dead stripping and registration order is deterministic).
// Binaries and tests look scenarios up by name or enumerate them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace sss::scenario {

class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;
  ScenarioRegistry(const ScenarioRegistry&) = delete;
  ScenarioRegistry& operator=(const ScenarioRegistry&) = delete;

  // The process-wide registry used by scenario_runner.  Tests may construct
  // private registries instead.
  static ScenarioRegistry& global();

  // Throws std::invalid_argument on an empty name, a spec without analyze,
  // or a duplicate registration.
  void add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const { return find(name) != nullptr; }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  // Names in sorted order (the --list order).
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::vector<const ScenarioSpec*> all() const;

 private:
  std::map<std::string, ScenarioSpec> specs_;
};

// Registers every built-in scenario (figures, ablations, case studies,
// model sweeps, live pipelines, and the new stress scenarios) into the
// global registry.  Idempotent.
void register_builtin_scenarios();

}  // namespace sss::scenario
