#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "core/technique.h"
#include "engine/evaluation.h"
#include "math/distribution.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "systems/system_config.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace mlck::engine {

/// Declarative choice of failure inter-arrival law for a scenario. The
/// default is the paper's exponential assumption at the system MTBF;
/// Weibull/LogNormal select the matching law *family* for both sides of a
/// scenario: the model threads it through math::FailureLaw primitives
/// (per-severity rates from the system config pick each level's family
/// member), and the simulator draws renewal inter-arrivals from the
/// resolved sampling distribution (math/distribution.h).
struct DistributionSpec {
  enum class Kind { kExponential, kWeibull, kLogNormal };

  Kind kind = Kind::kExponential;
  double shape = 0.7;   ///< Weibull shape (ignored otherwise)
  double sigma = 1.0;   ///< LogNormal sigma (ignored otherwise)
  /// Mean inter-arrival in minutes; <= 0 means "the system's MTBF"
  /// (unless @ref scale sets the time scale instead).
  double mean = 0.0;
  /// Alternative time-scale parameter, mutually exclusive with @ref mean:
  /// the Weibull scale lambda (mean = lambda * Gamma(1 + 1/shape)), the
  /// log-normal median exp(mu) (mean = median * exp(sigma^2 / 2)), or the
  /// exponential mean itself. <= 0 means "not set".
  double scale = 0.0;

  /// True for the exponential law at the system MTBF — the case where the
  /// simulator's native Poisson source applies and trial results stay
  /// bit-compatible with seeds from the pre-scenario API.
  bool is_default_exponential() const noexcept {
    return kind == Kind::kExponential && mean <= 0.0 && scale <= 0.0;
  }

  /// The mean inter-arrival this spec denotes for @p system_mtbf: the
  /// explicit mean, else the mean implied by scale, else the MTBF.
  double resolved_mean(double system_mtbf) const;

  /// Instantiates the sampling law for @p system (resolves the mean).
  std::unique_ptr<math::FailureDistribution> make(
      const systems::SystemConfig& system) const;

  /// The law family for the analytic model: null for exponential (the
  /// closed-form fast path), a shared math::FailureLaw otherwise. Note
  /// the model takes per-severity rates from the system config — mean and
  /// scale apply to the simulator side only (docs/MODELS.md).
  std::shared_ptr<const math::FailureLaw> family() const;

  /// Parses the CLI grammar: "<law>[:key=value[,key=value...]]" with law
  /// one of exponential|weibull|lognormal and keys shape (Weibull), sigma
  /// (log-normal), mean, scale — e.g. "weibull:shape=0.7,scale=120".
  /// Strict: unknown keys, non-positive parameters, or mean and scale
  /// together throw std::invalid_argument.
  static DistributionSpec parse(const std::string& text);
  /// Round-trips through parse(): parse(to_string()) == *this.
  std::string to_string() const;

  /// Canonical JSON form, the scenario "failure" section:
  ///   {"law": "weibull", "shape": 0.7, "scale": 120}
  /// (keys law, shape, sigma, mean, scale; same strictness as parse(),
  /// so shape is Weibull-only and sigma log-normal-only).
  static DistributionSpec from_json(const util::Json& doc);
  util::Json to_json() const;
};

/// One fully-declared evaluation scenario: everything the CLI, the
/// experiment drivers, the benches, and the examples previously assembled
/// by hand — system, model choice and options, failure law, optimizer
/// controls, and simulation controls — in one JSON-round-trippable value.
struct ScenarioSpec {
  systems::SystemConfig system;
  /// Non-empty when the system came from a Table I name; to_json then
  /// emits the name instead of the inline document.
  std::string system_ref;

  /// Technique registry name: "dauwe", "di", "moody", "benoit", "daly",
  /// "young". model_options applies to the Dauwe model only.
  std::string model = "dauwe";
  core::DauweOptions model_options;

  DistributionSpec distribution;
  core::OptimizerOptions optimizer;

  std::size_t trials = 200;
  std::uint64_t seed = 20180521;
  sim::SimOptions sim;

  /// Throws std::invalid_argument when the spec is unusable (no system,
  /// unknown model name checked lazily by run_scenario).
  void validate() const;

  /// The cached evaluation engine for this scenario's system + options,
  /// with the scenario's failure-law family threaded into every kernel
  /// (null for exponential — the bit-identical fast path).
  EvaluationEngine make_engine() const {
    return EvaluationEngine(system, model_options, distribution.family());
  }

  /// Round-trip: from_json(to_json(spec)) == spec (compared as JSON).
  /// Every field except "system" is optional and defaults as above.
  /// Parsing is strict: an unknown key anywhere in the document (a typo'd
  /// field, a section in the wrong place) throws std::invalid_argument
  /// naming the key and its section rather than being silently ignored.
  static ScenarioSpec from_json(const util::Json& doc);
  util::Json to_json() const;

  /// Convenience: parse/serialize whole files.
  static ScenarioSpec load(const std::string& path);
};

/// Strict-parsing guard shared by the scenario parser and the mlckd
/// request envelopes: any key of @p doc outside @p known throws
/// std::invalid_argument naming the key, @p context (the section, or the
/// request op) and the known keys, so a typo'd field ("trails",
/// "tau_mim") fails loudly instead of silently running the default
/// configuration.
void require_known_keys(const util::Json& doc, const std::string& context,
                        std::initializer_list<const char*> known);

/// Result of driving one scenario end to end.
struct ScenarioOutcome {
  core::TechniqueResult selected;  ///< chosen plan + the model's forecast
  sim::TrialStats stats;           ///< Monte-Carlo validation under the
                                   ///< scenario's failure distribution
};

/// The standard metric wiring for a scenario run, resolved once against a
/// registry (every name is listed in docs/OBSERVABILITY.md). The bundle
/// only holds pointers into @p registry, which must outlive it; pass the
/// sub-structs to the components they instrument.
struct ScenarioMetrics {
  explicit ScenarioMetrics(obs::MetricsRegistry& registry);

  EngineMetrics engine;
  core::OptimizerMetrics optimizer;
  sim::SimMetrics sim;
};

/// The conventional pool metric set ("pool.*"), for callers that own the
/// ThreadPool (the CLI and bench drivers attach this to theirs).
util::ThreadPoolMetrics pool_metrics(obs::MetricsRegistry& registry);

/// Runs @p spec end to end: selects a plan (through the cached
/// EvaluationEngine for the Dauwe model, through the technique registry
/// otherwise) and validates it with spec.trials simulated runs drawn from
/// spec.distribution. With the default exponential distribution the
/// simulation is bit-identical to sim::run_trials on the same seed.
///
/// When @p metrics is non-null the run is instrumented under the standard
/// ScenarioMetrics names; results are bit-identical either way
/// (instrumentation is observe-only).
///
/// When @p trace is non-null the selection stages emit host-side spans
/// ("scenario.select_plan", "scenario.simulate", plus the optimizer and
/// engine spans; docs/OBSERVABILITY.md) into it — also observe-only. To
/// capture simulator event streams, point spec.sim.capture at a
/// sim::TrialTraceCapture; the caller owns both.
ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                             util::ThreadPool* pool = nullptr,
                             obs::MetricsRegistry* metrics = nullptr,
                             obs::TraceSink* trace = nullptr);

}  // namespace mlck::engine
