// Optimizer sweep kernel trajectory, two tiers over the same search:
//
//   cached  — the baseline: the per-plan optimize_intervals over a
//             bench-local model adapter that evaluates each enumerated
//             plan through EvaluationEngine::expected_time, i.e. the
//             cached per-(system, level-subset) DauweKernel running the
//             full Eqns. 4-14 recursion per plan.
//   pruned  — the staged search (EvaluationEngine::optimize): the
//             prefix-incremental kernel cursor, 8 tau0 lanes per task, and
//             the Benoit-style admissible lower bound against a per-subset
//             incumbent. Same winner bit for bit; far fewer evaluated
//             leaves. The sweep itself is not bit-identical, so the check
//             here is winner equality plus the lattice accounting identity
//             coarse_evaluations + pruned_feasibility + pruned_bound
//             == tau_points x ladder^dims summed over level subsets,
//             which both tiers must tile exactly.
//
// Writes BENCH_optimizer.json (deterministic key order via util::Json) so
// the speedup and the bit_identical flag are tracked artifacts. --smoke
// shrinks the tau grid for CI; --metrics=file.json writes the engine /
// optimizer / pool counter sidecar (docs/OBSERVABILITY.md).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/model.h"
#include "core/optimizer.h"
#include "core/serialize.h"
#include "engine/evaluation.h"
#include "engine/scenario.h"
#include "obs/registry.h"
#include "systems/test_systems.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using mlck::util::Json;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-repeats wall time of one optimizer run.
template <typename Fn>
double time_best(int repeats, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// The winner contract both tiers must honor: identical plan, expected
/// time, and efficiency. Evaluation counts are deliberately excluded —
/// the pruned tier evaluates fewer leaves by design.
bool same_winner(const mlck::core::OptimizationResult& a,
                 const mlck::core::OptimizationResult& b) {
  return a.plan.tau0 == b.plan.tau0 && a.plan.counts == b.plan.counts &&
         a.plan.levels == b.plan.levels &&
         a.expected_time == b.expected_time && a.efficiency == b.efficiency;
}

/// The cached tier's cost model: every plan through the engine's cached
/// kernels, one whole recursion per plan.
class CachedEngineModel final : public mlck::core::ExecutionTimeModel {
 public:
  explicit CachedEngineModel(const mlck::engine::EvaluationEngine& engine)
      : engine_(engine) {}
  double expected_time(const mlck::systems::SystemConfig& /*system*/,
                       const mlck::core::CheckpointPlan& plan) const override {
    return engine_.expected_time(plan);
  }

 private:
  const mlck::engine::EvaluationEngine& engine_;
};

/// Coarse lattice size the accounting identity must tile: tau points x
/// ladder^dims, summed over the level subsets the default search visits
/// (full hierarchy plus each skipped suffix).
std::size_t lattice_size(const mlck::systems::SystemConfig& sys,
                         const mlck::core::OptimizerOptions& opts) {
  const std::size_t rungs =
      mlck::core::count_ladder(opts.max_count).size();
  std::size_t lattice = 0;
  for (int dims = 0; dims < sys.levels(); ++dims) {
    std::size_t leaves = 1;
    for (int d = 0; d < dims; ++d) leaves *= rungs;
    lattice += static_cast<std::size_t>(opts.coarse_tau_points) * leaves;
  }
  return lattice;
}

std::size_t accounted(const mlck::core::OptimizationResult& r) {
  return r.coarse_evaluations + r.pruned_feasibility + r.pruned_bound;
}

}  // namespace

int main(int argc, char** argv) {
  const mlck::util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const int repeats = cli.get_int("repeats", smoke ? 1 : 5);
  const std::string out = cli.get_string("out", "BENCH_optimizer.json");
  const std::string metrics_path = cli.get_string("metrics", "");
  const int threads = cli.get_int("threads", 0);
  mlck::bench::reject_unknown_flags(cli);
  mlck::util::ThreadPool pool(
      static_cast<std::size_t>(std::max(threads, 0)));

  std::unique_ptr<mlck::obs::MetricsRegistry> registry;
  std::unique_ptr<mlck::engine::ScenarioMetrics> wiring;
  if (!metrics_path.empty()) {
    registry = std::make_unique<mlck::obs::MetricsRegistry>();
    wiring = std::make_unique<mlck::engine::ScenarioMetrics>(*registry);
    pool.attach_metrics(mlck::engine::pool_metrics(*registry));
  }

  mlck::core::OptimizerOptions base;
  if (smoke) base.coarse_tau_points = 24;  // CI-sized grid, same code paths
  if (wiring != nullptr) base.metrics = &wiring->optimizer;

  mlck::util::Table table({"system", "evals", "pruned evals", "cached s",
                           "pruned s", "speedup", "identical"});
  Json::Array systems_json;
  double worst = std::numeric_limits<double>::infinity();
  bool all_identical = true;
  bool all_accounted = true;

  for (const char* name : {"B", "M", "D1", "D3", "D5", "D7", "D9"}) {
    mlck::bench::progress("bench optimizer: " + std::string(name));
    const auto sys = mlck::systems::table1_system(name);
    mlck::engine::EvaluationEngine engine(sys);
    if (wiring != nullptr) engine.attach_metrics(wiring->engine);

    const CachedEngineModel cached_model(engine);

    // One untimed run per tier: warms the context cache and code/data
    // paths, and supplies the results for the equality checks.
    const auto cached =
        mlck::core::optimize_intervals(cached_model, sys, base, &pool);
    const auto pruned = engine.optimize(base, &pool);

    const bool bit_identical = same_winner(cached, pruned);
    if (!bit_identical) {
      std::cerr << "FATAL: pruned sweep selects a different winner on "
                << name << "\n";
    }
    all_identical = all_identical && bit_identical;

    const std::size_t lattice = lattice_size(sys, base);
    const bool accounting_ok =
        accounted(cached) == lattice && accounted(pruned) == lattice;
    if (!accounting_ok) {
      all_accounted = false;
      std::cerr << "FATAL: lattice accounting broken on " << name
                << ": lattice " << lattice << " cached "
                << accounted(cached) << " pruned " << accounted(pruned)
                << "\n";
    }

    const double cached_s = time_best(repeats, [&] {
      mlck::core::optimize_intervals(cached_model, sys, base, &pool);
    });
    const double pruned_s =
        time_best(repeats, [&] { engine.optimize(base, &pool); });

    const auto evals = static_cast<double>(cached.evaluations);
    const double speedup = cached_s / pruned_s;
    worst = std::min(worst, speedup);
    table.add_row({name, std::to_string(cached.evaluations),
                   std::to_string(pruned.evaluations),
                   mlck::util::Table::num(cached_s, 4),
                   mlck::util::Table::num(pruned_s, 4),
                   mlck::util::Table::num(speedup, 2) + "x",
                   bit_identical && accounting_ok ? "yes" : "NO"});

    Json::Object row;
    row["system"] = name;
    row["levels"] = sys.levels();
    row["evaluations"] = evals;
    row["pruned_evaluations"] = static_cast<double>(pruned.evaluations);
    row["pruned_feasibility"] =
        static_cast<double>(pruned.pruned_feasibility);
    row["pruned_bound"] = static_cast<double>(pruned.pruned_bound);
    row["lattice"] = static_cast<double>(lattice);
    row["cached_seconds"] = cached_s;
    row["pruned_seconds"] = pruned_s;
    row["cached_evals_per_sec"] = evals / cached_s;
    row["total_speedup"] = speedup;
    row["bit_identical"] = bit_identical;
    row["accounting_ok"] = accounting_ok;
    systems_json.emplace_back(std::move(row));
  }

  Json::Object doc;
  doc["benchmark"] = "optimizer_sweep_tiers_cached_pruned";
  doc["optimizer"] = smoke ? "optimize_intervals, coarse_tau_points=24"
                           : "optimize_intervals default options";
  doc["repeats"] = repeats;
  doc["threads"] = threads;
  doc["smoke"] = smoke;
  doc["systems"] = std::move(systems_json);
  doc["min_speedup"] = worst;
  doc["bit_identical"] = all_identical;
  doc["accounting_ok"] = all_accounted;
  mlck::core::write_file(out, Json(std::move(doc)).dump(2) + "\n");

  if (registry != nullptr && !metrics_path.empty()) {
    std::ofstream sidecar(metrics_path);
    sidecar << registry->to_json().dump(2) << "\n";
    std::cerr << "[mlck] wrote metrics sidecar " << metrics_path << "\n";
  }

  std::cout << "Optimizer benchmark: cached per-plan sweep vs staged "
               "lane-batched pruned sweep (identical winner, accounted "
               "lattice)\n";
  table.print(std::cout);
  std::cout << "\nwrote " << out << "\n";
  if (!all_identical || !all_accounted) return 1;
  return worst > 1.0 ? 0 : 3;
}
