#include "exp/experiments.h"

#include <stdexcept>

#include "systems/scaling.h"

namespace mlck::exp {

const engine::ScenarioOutcome& ScenarioResult::outcome(
    const std::string& technique) const {
  for (const auto& o : outcomes) {
    if (o.selected.technique == technique) return o;
  }
  throw std::out_of_range("no outcome for technique: " + technique);
}

ScenarioResult compare_models(const engine::ScenarioSpec& spec,
                              const std::string& label,
                              const std::vector<std::string>& models,
                              util::ThreadPool* pool,
                              obs::MetricsRegistry* metrics,
                              obs::TraceSink* trace) {
  ScenarioResult result;
  result.label = label;
  result.outcomes.reserve(models.size());
  engine::ScenarioSpec point = spec;
  for (const auto& model : models) {
    point.model = model;
    result.outcomes.push_back(
        engine::run_scenario(point, pool, metrics, trace));
  }
  return result;
}

std::vector<ScaledScenario> scaled_b_grid(
    double base_time, const std::vector<double>& pfs_costs) {
  std::vector<ScaledScenario> grid;
  for (const double pfs : pfs_costs) {
    for (const double mtbf : systems::figure4_mtbf_grid()) {
      ScaledScenario sc;
      sc.mtbf = mtbf;
      sc.pfs_cost = pfs;
      sc.system = systems::scaled_system_b(mtbf, pfs, base_time);
      sc.label = "PFS=" + std::to_string(static_cast<int>(pfs)) +
                 "m MTBF=" + std::to_string(static_cast<int>(mtbf)) + "m";
      grid.push_back(std::move(sc));
    }
  }
  return grid;
}

}  // namespace mlck::exp
