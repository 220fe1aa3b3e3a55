#pragma once

#include <string>
#include <vector>

#include "engine/scenario.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "systems/system_config.h"
#include "util/thread_pool.h"

namespace mlck::exp {

/// The five techniques compared in paper Figure 2, in the paper's legend
/// order: Dauwe et al., Di et al., Moody et al., Benoit et al., Daly.
inline const std::vector<std::string> kFigure2Models = {
    "dauwe", "di", "moody", "benoit", "daly"};

/// The three best techniques of Figures 3-6: Dauwe, Di, Moody.
inline const std::vector<std::string> kMultilevelModels = {"dauwe", "di",
                                                           "moody"};

/// Every technique the library ships: Figure 2's five plus Young.
inline const std::vector<std::string> kAllModels = {
    "dauwe", "di", "moody", "benoit", "daly", "young"};

/// One x-axis position of a figure: a system/scenario and every
/// technique's outcome on it (its selected plan, its own forecast — the
/// diamond — and the simulated bar with its error whiskers).
struct ScenarioResult {
  std::string label;
  std::vector<engine::ScenarioOutcome> outcomes;

  /// Outcome of the technique with display name @p technique ("Moody et
  /// al."); throws std::out_of_range if absent.
  const engine::ScenarioOutcome& outcome(const std::string& technique) const;
};

/// Runs engine::run_scenario once per name in @p models, each on @p spec
/// with spec.model replaced, and collects the outcomes in that order.
/// @p pool, @p metrics and @p trace are passed through to every run.
ScenarioResult compare_models(const engine::ScenarioSpec& spec,
                              const std::string& label,
                              const std::vector<std::string>& models,
                              util::ThreadPool* pool = nullptr,
                              obs::MetricsRegistry* metrics = nullptr,
                              obs::TraceSink* trace = nullptr);

/// The Figure 4 / Figure 5 scenario grid: Table I system B with the MTBF
/// and PFS-cost sweeps applied, at the given application base time.
struct ScaledScenario {
  double mtbf = 0.0;
  double pfs_cost = 0.0;
  systems::SystemConfig system;
  std::string label;
};
std::vector<ScaledScenario> scaled_b_grid(double base_time,
                                          const std::vector<double>& pfs_costs);

}  // namespace mlck::exp
