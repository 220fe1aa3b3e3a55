// Golden guarantees of the evaluation engine: every result that flows
// through src/engine — cached kernels, batched sweeps, the optimizer
// front-end, and full scenario runs — must be *bit-identical* to the
// direct DauweModel / optimize_intervals / run_trials path it replaced.
// These tests use exact EXPECT_EQ on doubles deliberately: the engine is
// an exact factoring of the same arithmetic, not an approximation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/commands.h"
#include "core/dauwe_kernel.h"
#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "core/serialize.h"
#include "engine/evaluation.h"
#include "engine/scenario.h"
#include "obs/registry.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace mlck::engine {
namespace {

using core::CheckpointPlan;
using core::DauweModel;
using core::DauweOptions;

const char* const kAllSystems[] = {"M",  "B",  "D1", "D2", "D3", "D4",
                                   "D5", "D6", "D7", "D8", "D9"};

/// Deterministic random plans over a random level subset of @p system.
std::vector<CheckpointPlan> random_plans(const systems::SystemConfig& system,
                                         int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> tau(0.05, 30.0);
  std::uniform_int_distribution<int> count(0, 12);
  std::vector<CheckpointPlan> plans;
  for (int i = 0; i < n; ++i) {
    CheckpointPlan plan;
    plan.tau0 = tau(rng);
    // Random non-empty ascending subset of the system's levels.
    for (int level = 0; level < system.levels(); ++level) {
      if (rng() % 2 == 0) plan.levels.push_back(level);
    }
    if (plan.levels.empty()) {
      plan.levels.push_back(static_cast<int>(rng() % system.levels()));
    }
    plan.counts.resize(plan.levels.size() - 1);
    for (auto& c : plan.counts) c = count(rng);
    plans.push_back(std::move(plan));
  }
  return plans;
}

TEST(EngineGolden, ExpectedTimeBitMatchesDauweModelOnAllSystems) {
  for (const char* name : kAllSystems) {
    const auto sys = systems::table1_system(name);
    const DauweModel model;
    const EvaluationEngine engine(sys);
    for (const auto& plan : random_plans(sys, 50, 42)) {
      const double direct = model.expected_time(sys, plan);
      const double cached = engine.expected_time(plan);
      if (std::isinf(direct)) {
        EXPECT_TRUE(std::isinf(cached)) << name << " " << plan.to_string();
      } else {
        EXPECT_EQ(direct, cached) << name << " " << plan.to_string();
      }
    }
  }
}

TEST(EngineGolden, ExpectedTimeBitMatchesUnderAllOptionVariants) {
  const auto sys = systems::table1_system("B");
  DauweOptions variants[4];
  variants[1].checkpoint_failures = false;
  variants[2].restart_failures = false;
  variants[3].renormalize_severity_shares = true;
  for (const auto& options : variants) {
    const DauweModel model(options);
    const EvaluationEngine engine(sys, options);
    for (const auto& plan : random_plans(sys, 40, 7)) {
      const double direct = model.expected_time(sys, plan);
      const double cached = engine.expected_time(plan);
      if (std::isinf(direct)) {
        EXPECT_TRUE(std::isinf(cached)) << plan.to_string();
      } else {
        EXPECT_EQ(direct, cached) << plan.to_string();
      }
    }
  }
}

TEST(EngineGolden, PredictBitMatchesDauweModelBreakdown) {
  for (const char* name : {"M", "B", "D5", "D9"}) {
    const auto sys = systems::table1_system(name);
    const DauweModel model;
    const EvaluationEngine engine(sys);
    for (const auto& plan : random_plans(sys, 20, 99)) {
      const auto direct = model.predict(sys, plan);
      if (std::isinf(direct.expected_time)) continue;
      const auto cached = engine.predict(plan);
      EXPECT_EQ(direct.expected_time, cached.expected_time) << name;
      EXPECT_EQ(direct.efficiency, cached.efficiency) << name;
      EXPECT_EQ(direct.breakdown.compute, cached.breakdown.compute);
      EXPECT_EQ(direct.breakdown.checkpoint_ok,
                cached.breakdown.checkpoint_ok);
      EXPECT_EQ(direct.breakdown.checkpoint_failed,
                cached.breakdown.checkpoint_failed);
      EXPECT_EQ(direct.breakdown.restart_ok, cached.breakdown.restart_ok);
      EXPECT_EQ(direct.breakdown.restart_failed,
                cached.breakdown.restart_failed);
      EXPECT_EQ(direct.breakdown.rework_compute,
                cached.breakdown.rework_compute);
      EXPECT_EQ(direct.breakdown.rework_checkpoint,
                cached.breakdown.rework_checkpoint);
      EXPECT_EQ(direct.breakdown.scratch_rework,
                cached.breakdown.scratch_rework);
    }
  }
}

TEST(EngineGolden, KernelMatchesModelDirectly) {
  const auto sys = systems::table1_system("D8");
  const DauweModel model;
  for (const auto& plan : random_plans(sys, 30, 5)) {
    const core::DauweKernel kernel(sys, plan.levels, model.options());
    const double direct = model.expected_time(sys, plan);
    const double viaKernel = kernel.expected_time(plan.tau0, plan.counts);
    if (std::isinf(direct)) {
      EXPECT_TRUE(std::isinf(viaKernel));
    } else {
      EXPECT_EQ(direct, viaKernel);
    }
  }
}

/// Reduced search so the all-systems optimizer comparison stays fast while
/// still exercising subsets, pruning, and refinement.
core::OptimizerOptions quick_search() {
  core::OptimizerOptions opts;
  opts.coarse_tau_points = 24;
  opts.max_count = 32;
  opts.refine_rounds = 8;
  return opts;
}

/// The coarse lattice both searches must tile exactly: tau points x
/// ladder^dims, summed over the level subsets the default search visits
/// (the full hierarchy plus each skipped suffix).
std::size_t coarse_lattice(const systems::SystemConfig& system,
                           const core::OptimizerOptions& opts) {
  const std::size_t rungs = core::count_ladder(opts.max_count).size();
  std::size_t lattice = 0;
  std::size_t leaves = 1;
  for (int dims = 0; dims < system.levels(); ++dims) {
    lattice += static_cast<std::size_t>(opts.coarse_tau_points) * leaves;
    leaves *= rungs;
  }
  return lattice;
}

std::size_t accounted(const core::OptimizationResult& result) {
  return result.coarse_evaluations + result.pruned_feasibility +
         result.pruned_bound;
}

TEST(EngineGolden, OptimizeBitMatchesOptimizeIntervalsOnAllSystems) {
  // Two inputs: the reduced search serially, and the default search on a
  // 24-point tau grid on a pool.
  util::ThreadPool pool(4);
  core::OptimizerOptions coarse_grid;
  coarse_grid.coarse_tau_points = 24;
  const struct {
    const char* label;
    core::OptimizerOptions opts;
    util::ThreadPool* pool;
  } inputs[] = {{"quick, serial", quick_search(), nullptr},
                {"24 tau points, pooled", coarse_grid, &pool}};
  for (const auto& input : inputs) {
    for (const char* name : kAllSystems) {
      SCOPED_TRACE(::testing::Message() << name << " " << input.label);
      const auto sys = systems::table1_system(name);
      const DauweModel model;
      const EvaluationEngine engine(sys);
      const auto direct =
          core::optimize_intervals(model, sys, input.opts, input.pool);
      // The engine's staged search (lane-batched, pruned) keeps the
      // winner bit-identical while evaluating fewer leaves.
      const auto pruned = engine.optimize(input.opts, input.pool);
      EXPECT_EQ(direct.plan.tau0, pruned.plan.tau0);
      EXPECT_EQ(direct.plan.counts, pruned.plan.counts);
      EXPECT_EQ(direct.plan.levels, pruned.plan.levels);
      EXPECT_EQ(direct.expected_time, pruned.expected_time);
      EXPECT_EQ(direct.efficiency, pruned.efficiency);
      EXPECT_LE(pruned.evaluations, direct.evaluations);
      // Swept plus pruned leaves tile the whole coarse lattice.
      const std::size_t lattice = coarse_lattice(sys, input.opts);
      EXPECT_EQ(accounted(direct), lattice);
      EXPECT_EQ(accounted(pruned), lattice);
    }
  }
}

TEST(EngineGolden, OptimizeBitMatchesWithThreadPool) {
  const auto sys = systems::table1_system("B");
  const DauweModel model;
  const EvaluationEngine engine(sys);
  util::ThreadPool pool(3);
  const auto direct = core::optimize_intervals(model, sys, {}, &pool);
  const auto pruned = engine.optimize({}, &pool);
  EXPECT_EQ(direct.plan.tau0, pruned.plan.tau0);
  EXPECT_EQ(direct.plan.counts, pruned.plan.counts);
  EXPECT_EQ(direct.plan.levels, pruned.plan.levels);
  EXPECT_EQ(direct.expected_time, pruned.expected_time);
  EXPECT_LE(pruned.evaluations, direct.evaluations);
}

TEST(Engine, ContextsAreCachedAndReused) {
  const auto sys = systems::table1_system("B");
  const EvaluationEngine engine(sys);
  EXPECT_EQ(engine.cached_contexts(), 0u);
  const auto& first = engine.context({0, 1, 2, 3});
  const auto& again = engine.context({0, 1, 2, 3});
  EXPECT_EQ(&first, &again);  // same immutable context object
  EXPECT_EQ(engine.cached_contexts(), 1u);
  engine.context({0, 1});
  EXPECT_EQ(engine.cached_contexts(), 2u);
}

TEST(Engine, ConcurrentExpectedTimeIsLockFreeAfterFirstBuildAndExact) {
  // expected_time/predict must not serialize concurrent callers: the
  // context lookup is a lock-free list walk, with the mutex taken only to
  // build a subset's context the first time anyone asks for it. Hammer
  // the engine from many threads over plans spanning several subsets —
  // including subsets no thread has built yet — and require every value
  // to equal the serial answer and the cache to hold exactly one context
  // per distinct subset.
  const auto sys = systems::table1_system("B");
  EvaluationEngine engine(sys);
  obs::MetricsRegistry registry;
  EngineMetrics metrics;
  metrics.context_hits = &registry.counter("engine.context_cache.hits");
  metrics.context_misses = &registry.counter("engine.context_cache.misses");
  metrics.evaluations = &registry.counter("engine.evaluations");
  engine.attach_metrics(metrics);

  std::vector<CheckpointPlan> plans;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    for (const auto& p : random_plans(sys, 64, seed)) plans.push_back(p);
  }
  const DauweModel model;
  std::vector<double> serial(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    serial[i] = model.expected_time(sys, plans[i]);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::vector<double>> got(
      kThreads, std::vector<double>(plans.size()));
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (std::size_t i = 0; i < plans.size(); ++i) {
            got[static_cast<std::size_t>(t)][i] =
                engine.expected_time(plans[i]);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], serial) << "thread " << t;
  }
  // One context per distinct subset; every other lookup was a cache hit.
  std::size_t distinct = 0;
  std::vector<std::vector<int>> seen;
  for (const auto& p : plans) {
    if (std::find(seen.begin(), seen.end(), p.levels) == seen.end()) {
      seen.push_back(p.levels);
      ++distinct;
    }
  }
  EXPECT_EQ(engine.cached_contexts(), distinct);
  EXPECT_EQ(metrics.context_misses->value(), distinct);
  const auto total_calls =
      static_cast<std::uint64_t>(kThreads) * kRounds * plans.size();
  EXPECT_EQ(metrics.evaluations->value(), total_calls);
  EXPECT_EQ(metrics.context_hits->value(), total_calls - distinct);
}

TEST(Engine, RejectsInvalidSystem) {
  systems::SystemConfig bad;  // no levels
  EXPECT_THROW(EvaluationEngine{bad}, std::invalid_argument);
}

TEST(ScenarioSpec, JsonRoundTripIsExact) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  spec.model = "dauwe";
  spec.model_options.renormalize_severity_shares = true;
  spec.distribution.kind = DistributionSpec::Kind::kWeibull;
  spec.distribution.shape = 1.5;
  spec.optimizer.coarse_tau_points = 17;
  spec.optimizer.restrict_levels = {0, 1};
  spec.trials = 33;
  spec.seed = 987654321;
  spec.sim.take_final_checkpoint = true;

  const auto doc = spec.to_json();
  const auto back = ScenarioSpec::from_json(doc);
  EXPECT_EQ(doc.dump(), back.to_json().dump());

  // And through actual text, as a file would round-trip.
  const auto reparsed =
      ScenarioSpec::from_json(util::Json::parse(doc.dump(2)));
  EXPECT_EQ(doc.dump(), reparsed.to_json().dump());
  EXPECT_EQ(reparsed.trials, 33u);
  EXPECT_EQ(reparsed.seed, 987654321u);
  EXPECT_EQ(reparsed.optimizer.restrict_levels, (std::vector<int>{0, 1}));
  EXPECT_EQ(reparsed.distribution.kind, DistributionSpec::Kind::kWeibull);
  EXPECT_EQ(reparsed.distribution.shape, 1.5);
}

TEST(ScenarioSpec, SystemRefRoundTripsAsName) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D3");
  spec.system_ref = "D3";
  const auto doc = spec.to_json();
  EXPECT_TRUE(doc.at("system").is_string());
  const auto back = ScenarioSpec::from_json(doc);
  EXPECT_EQ(back.system_ref, "D3");
  EXPECT_EQ(back.system.mtbf, spec.system.mtbf);
  EXPECT_EQ(back.system.levels(), spec.system.levels());
}

TEST(ScenarioSpec, ValidateRejectsEmptySystemAndBadTrials) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.system = systems::table1_system("D1");
  EXPECT_NO_THROW(spec.validate());
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// Injects @p key into @p section of a valid scenario document and
// asserts from_json rejects it with a message naming both the key and
// the section — a typo must never be silently ignored.
void expect_unknown_key_rejected(const char* section, const char* key) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D2");
  spec.system_ref = "D2";
  auto doc = spec.to_json();
  auto& root = doc.make_object();
  if (std::string(section) == "scenario") {
    root[key] = util::Json(1.0);
  } else {
    root[section].make_object()[key] = util::Json(1.0);
  }
  try {
    ScenarioSpec::from_json(doc);
    FAIL() << "unknown key \"" << key << "\" in " << section
           << " was silently accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(key), std::string::npos) << message;
    const std::string context = std::string(section) == "scenario"
                                    ? "scenario"
                                    : "scenario." + std::string(section);
    EXPECT_NE(message.find(context), std::string::npos) << message;
  }
}

TEST(ScenarioSpec, RejectsTypoedKeysNamingKeyAndSection) {
  expect_unknown_key_rejected("scenario", "trails");         // trials
  expect_unknown_key_rejected("scenario", "modle");          // model
  expect_unknown_key_rejected("model_options", "checkpoint_failure");
  expect_unknown_key_rejected("optimizer", "tau_mim");       // tau_min
  expect_unknown_key_rejected("optimizer", "coarse_points");
  expect_unknown_key_rejected("failure", "shap");            // shape
  expect_unknown_key_rejected("sim", "restart_polcy");
  // Settings the optimizer no longer has are unknown keys like any typo.
  expect_unknown_key_rejected("optimizer", "lane_batch");
  expect_unknown_key_rejected("optimizer", "prune");
  // The retired "distribution" section is an unknown key; the law lives
  // in "failure" only.
  expect_unknown_key_rejected("scenario", "distribution");
  // The same checker guards the mlckd request envelopes, naming the op.
  try {
    require_known_keys(util::Json::parse("{\"op\":\"ping\",\"flux\":1}"),
                       "request op ping", {"op", "id"});
    FAIL() << "unknown key \"flux\" in request op ping was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "unknown key \"flux\" in request op ping (known keys: op id)");
  }
}

TEST(ScenarioSpec, StrictParsingStillAcceptsEveryKnownKey) {
  // The full to_json document exercises every recognized key in every
  // section; strict parsing must accept it unchanged.
  ScenarioSpec spec;
  spec.system = systems::table1_system("D4");
  spec.model_options.restart_failures = false;
  spec.distribution.kind = DistributionSpec::Kind::kLogNormal;
  spec.distribution.sigma = 1.2;
  spec.distribution.mean = 90.0;
  spec.optimizer.tau_min = 0.25;
  spec.optimizer.restrict_levels = {0};
  spec.sim.take_final_checkpoint = true;
  EXPECT_NO_THROW(ScenarioSpec::from_json(spec.to_json()));
}

TEST(RunScenario, DefaultExponentialBitMatchesDirectPipeline) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  spec.trials = 50;
  spec.seed = 3;
  const auto outcome = run_scenario(spec);

  // Direct pipeline: same optimizer, then the native simulator entry
  // point with the same seed.
  const DauweModel model;
  const auto selected = core::optimize_intervals(model, spec.system);
  EXPECT_EQ(outcome.selected.plan.tau0, selected.plan.tau0);
  EXPECT_EQ(outcome.selected.plan.counts, selected.plan.counts);
  EXPECT_EQ(outcome.selected.predicted_time, selected.expected_time);
  const auto stats = sim::run_trials(spec.system, selected.plan,
                                     spec.trials, spec.seed, spec.sim);
  EXPECT_EQ(outcome.stats.efficiency.mean, stats.efficiency.mean);
  EXPECT_EQ(outcome.stats.efficiency.stddev, stats.efficiency.stddev);
  EXPECT_EQ(outcome.stats.total_time.mean, stats.total_time.mean);
  EXPECT_EQ(outcome.stats.mean_failures, stats.mean_failures);
}

TEST(RunScenario, NonExponentialDistributionChangesModelAndDraws) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  spec.trials = 50;
  spec.seed = 3;
  const auto exponential = run_scenario(spec);
  spec.distribution.kind = DistributionSpec::Kind::kWeibull;
  spec.distribution.shape = 0.7;
  const auto weibull = run_scenario(spec);
  // Selection is law-aware: the Weibull model forecasts through the
  // closed-form family, so both the forecast and the simulated draws move.
  EXPECT_NE(exponential.selected.predicted_time,
            weibull.selected.predicted_time);
  EXPECT_NE(exponential.stats.efficiency.mean,
            weibull.stats.efficiency.mean);
}

TEST(RunScenario, NonDauweModelGoesThroughTechniqueRegistry) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  spec.model = "moody";
  spec.trials = 20;
  const auto outcome = run_scenario(spec);
  EXPECT_EQ(outcome.selected.technique, "Moody et al.");
  EXPECT_GT(outcome.stats.efficiency.mean, 0.0);
}

TEST(SelectPlan, ResolvesEveryModelName) {
  // select_plan is the one place a model name resolves: "dauwe" to the
  // engine's search, the rest to the baseline registry.
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  EXPECT_EQ(select_plan(spec).technique, "Dauwe et al.");
  spec.model = "young";
  EXPECT_EQ(select_plan(spec).technique, "Young");
  spec.model = "nonesuch";
  EXPECT_THROW(select_plan(spec), std::out_of_range);
}

TEST(SelectPlan, DauweHonoursTheSpecsLawAndOptions) {
  // The spec's failure law, model options and optimizer controls all
  // reach the search: the selection is bit-equal to the spec's engine.
  ScenarioSpec spec;
  spec.system = systems::table1_system("B");
  spec.distribution = DistributionSpec::parse("weibull:shape=0.5");
  spec.model_options.checkpoint_failures = false;
  spec.optimizer.allow_suffix_skipping = false;
  const auto selected = select_plan(spec);
  const auto expected = spec.make_engine().optimize(spec.optimizer);
  EXPECT_EQ(selected.plan.tau0, expected.plan.tau0);
  EXPECT_EQ(selected.plan.levels, expected.plan.levels);
  EXPECT_EQ(selected.plan.counts, expected.plan.counts);
  EXPECT_EQ(selected.predicted_time, expected.expected_time);
  EXPECT_EQ(selected.predicted_efficiency, expected.efficiency);
}

TEST(SimulatePlan, DefaultLawIsTheNativeSourceOtherwiseTheRenewalSource) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D3");
  spec.trials = 30;
  spec.seed = 11;
  const auto plan = select_plan(spec).plan;
  const auto schedule = sim::CompiledSchedule::from_plan(spec.system, plan);
  const auto native = simulate_plan(spec, schedule);
  const auto direct =
      sim::run_trials(spec.system, plan, spec.trials, spec.seed, spec.sim);
  EXPECT_EQ(native.efficiency.mean, direct.efficiency.mean);
  EXPECT_EQ(native.total_time.mean, direct.total_time.mean);
  EXPECT_EQ(sampling_law(spec), nullptr);

  spec.distribution = DistributionSpec::parse("lognormal:sigma=1");
  const auto law = spec.distribution.make(spec.system);
  const auto renewal = simulate_plan(spec, schedule);
  const auto direct_renewal = sim::run_trials(
      spec.system, schedule, law.get(), spec.trials, spec.seed, spec.sim);
  EXPECT_EQ(renewal.efficiency.mean, direct_renewal.efficiency.mean);
  EXPECT_EQ(renewal.total_time.mean, direct_renewal.total_time.mean);
  EXPECT_NE(renewal.efficiency.mean, native.efficiency.mean);
}

TEST(RunScenario, UnknownModelThrows) {
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  spec.model = "nonesuch";
  EXPECT_THROW(run_scenario(spec), std::out_of_range);
}

TEST(RunScenario, MetricsAttachmentDoesNotPerturbResults) {
  // The observability wiring is observe-only: with a registry attached
  // the scenario outcome stays bit-identical to the bare run.
  ScenarioSpec spec;
  spec.system = systems::table1_system("D5");
  spec.trials = 40;
  spec.seed = 3;
  const auto bare = run_scenario(spec);

  obs::MetricsRegistry registry;
  util::ThreadPool pool(4);
  pool.attach_metrics(pool_metrics(registry));
  const auto metered = run_scenario(spec, &pool, &registry);
  EXPECT_EQ(bare.selected.plan.tau0, metered.selected.plan.tau0);
  EXPECT_EQ(bare.selected.plan.counts, metered.selected.plan.counts);
  EXPECT_EQ(bare.selected.predicted_time, metered.selected.predicted_time);
  EXPECT_EQ(bare.stats.efficiency.mean, metered.stats.efficiency.mean);
  EXPECT_EQ(bare.stats.efficiency.stddev, metered.stats.efficiency.stddev);
  EXPECT_EQ(bare.stats.total_time.mean, metered.stats.total_time.mean);

  // ...while every instrumented layer actually counted something.
  EXPECT_GT(registry.counter("engine.context_cache.misses").value(), 0u);
  EXPECT_GT(registry.counter("engine.evaluations").value(), 0u);
  EXPECT_GT(registry.counter("optimizer.plans_swept").value(), 0u);
  EXPECT_EQ(registry.counter("sim.trials").value(), 40u);
  EXPECT_GT(registry.counter("pool.tasks_run").value(), 0u);
  EXPECT_EQ(registry.histogram("sim.trial_time_minutes").count(), 40u);
}

TEST(ScenarioCli, MetricsSidecarHasNonZeroCounters) {
  const std::string spec_path =
      ::testing::TempDir() + "mlck_metrics_spec.json";
  const std::string path = ::testing::TempDir() + "mlck_metrics.json";
  std::ostringstream emit_out, emit_err;
  ASSERT_EQ(app::run_command(
                {"scenario", "--system=D5", "--emit-spec=" + spec_path},
                emit_out, emit_err),
            0)
      << emit_err.str();
  std::ostringstream out, err;
  ASSERT_EQ(app::run_command({"scenario", "--spec=" + spec_path,
                              "--trials=20", "--seed=7",
                              "--metrics=" + path},
                             out, err),
            0)
      << err.str();
  const util::Json doc = util::Json::parse(core::read_file(path));
  const auto& counters = doc.at("counters");
  EXPECT_GT(counters.at("engine.context_cache.misses").as_number(), 0.0);
  EXPECT_GT(counters.at("engine.evaluations").as_number(), 0.0);
  EXPECT_GT(counters.at("optimizer.plans_swept").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(counters.at("sim.trials").as_number(), 20.0);
  EXPECT_GT(counters.at("pool.tasks_run").as_number(), 0.0);
  EXPECT_GT(doc.at("histograms")
                .at("sim.trial_time_minutes")
                .at("count")
                .as_number(),
            0.0);
  // The run itself still prints the normal report.
  EXPECT_NE(out.str().find("efficiency"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ScenarioCli, EmitSpecThenRunRoundTrip) {
  // `mlck scenario --system=D5 --emit-spec` writes a complete document...
  std::ostringstream out, err;
  const std::string path = ::testing::TempDir() + "mlck_scenario_spec.json";
  ASSERT_EQ(app::run_command(
                {"scenario", "--system=D5", "--emit-spec=" + path}, out, err),
            0)
      << err.str();

  // ...which the run mode consumes end to end.
  std::ostringstream run_out, run_err;
  ASSERT_EQ(app::run_command(
                {"scenario", "--spec=" + path, "--trials=20"}, run_out,
                run_err),
            0)
      << run_err.str();
  EXPECT_NE(run_out.str().find("efficiency"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlck::engine
