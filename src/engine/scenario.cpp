#include "engine/scenario.h"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/serialize.h"
#include "models/registry.h"

namespace mlck::engine {

using util::Json;

namespace {

Json::Array levels_to_json(const std::vector<int>& levels) {
  Json::Array out;
  out.reserve(levels.size());
  for (const int v : levels) out.emplace_back(v);
  return out;
}

std::vector<int> levels_from_json(const Json& doc) {
  std::vector<int> out;
  for (const auto& item : doc.as_array()) {
    out.push_back(static_cast<int>(item.as_number()));
  }
  return out;
}

const char* kind_name(DistributionSpec::Kind kind) {
  switch (kind) {
    case DistributionSpec::Kind::kExponential: return "exponential";
    case DistributionSpec::Kind::kWeibull: return "weibull";
    case DistributionSpec::Kind::kLogNormal: return "lognormal";
  }
  return "exponential";
}

DistributionSpec::Kind kind_from_name(const std::string& name) {
  if (name == "exponential") return DistributionSpec::Kind::kExponential;
  if (name == "weibull") return DistributionSpec::Kind::kWeibull;
  if (name == "lognormal") return DistributionSpec::Kind::kLogNormal;
  throw std::invalid_argument("unknown distribution kind: " + name +
                              " (use exponential|weibull|lognormal)");
}

/// Shortest faithful parameter rendering for the CLI grammar: integral
/// values print without a fraction, everything else uses the shortest
/// %g precision that parses back to the same double ("0.7", not
/// "0.69999999999999996").
std::string param_to_string(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::stod(buf) == value) break;
  }
  return buf;
}

/// The key list parse() and from_json() name when they reject a key.
constexpr const char* kLawKeys =
    " (use shape [weibull] | sigma [lognormal] | mean | scale)";

/// Shared strictness for parse() and from_json(), which themselves reject
/// a shape/sigma of another law: parameters must be positive where given,
/// and mean/scale are mutually exclusive ways to set the time scale.
void check_distribution_spec(const DistributionSpec& spec,
                             const char* context) {
  const auto fail = [context](const std::string& what) {
    throw std::invalid_argument(std::string(context) + ": " + what);
  };
  if (!(spec.shape > 0.0) || !std::isfinite(spec.shape)) {
    fail("shape must be positive and finite");
  }
  if (!(spec.sigma > 0.0) || !std::isfinite(spec.sigma)) {
    fail("sigma must be positive and finite");
  }
  if (spec.mean < 0.0 || !std::isfinite(spec.mean)) {
    fail("mean must be positive (or omitted for the system MTBF)");
  }
  if (spec.scale < 0.0 || !std::isfinite(spec.scale)) {
    fail("scale must be positive (or omitted)");
  }
  if (spec.mean > 0.0 && spec.scale > 0.0) {
    fail("give at most one of mean and scale");
  }
}

Json model_options_to_json(const core::DauweOptions& opts) {
  Json::Object doc;
  doc["checkpoint_failures"] = Json(opts.checkpoint_failures);
  doc["restart_failures"] = Json(opts.restart_failures);
  doc["renormalize_severity_shares"] =
      Json(opts.renormalize_severity_shares);
  return Json(std::move(doc));
}

core::DauweOptions parse_model_options(const Json& doc) {
  core::DauweOptions opts;
  require_known_keys(doc, "scenario.model_options",
                     {"checkpoint_failures", "restart_failures",
                      "renormalize_severity_shares"});
  if (const Json* v = doc.find("checkpoint_failures"))
    opts.checkpoint_failures = v->as_bool();
  if (const Json* v = doc.find("restart_failures"))
    opts.restart_failures = v->as_bool();
  if (const Json* v = doc.find("renormalize_severity_shares"))
    opts.renormalize_severity_shares = v->as_bool();
  return opts;
}

Json optimizer_to_json(const core::OptimizerOptions& opts) {
  Json::Object doc;
  doc["coarse_tau_points"] = Json(opts.coarse_tau_points);
  doc["tau_min"] = Json(opts.tau_min);
  doc["max_count"] = Json(opts.max_count);
  doc["refine_rounds"] = Json(opts.refine_rounds);
  doc["allow_suffix_skipping"] = Json(opts.allow_suffix_skipping);
  if (!opts.restrict_levels.empty()) {
    doc["restrict_levels"] = Json(levels_to_json(opts.restrict_levels));
  }
  return Json(std::move(doc));
}

core::OptimizerOptions optimizer_from_json(const Json& doc) {
  core::OptimizerOptions opts;
  require_known_keys(doc, "scenario.optimizer",
                     {"coarse_tau_points", "tau_min", "max_count",
                      "refine_rounds", "allow_suffix_skipping",
                      "restrict_levels"});
  if (const Json* v = doc.find("coarse_tau_points"))
    opts.coarse_tau_points = static_cast<int>(v->as_number());
  if (const Json* v = doc.find("tau_min")) opts.tau_min = v->as_number();
  if (const Json* v = doc.find("max_count"))
    opts.max_count = static_cast<int>(v->as_number());
  if (const Json* v = doc.find("refine_rounds"))
    opts.refine_rounds = static_cast<int>(v->as_number());
  if (const Json* v = doc.find("allow_suffix_skipping"))
    opts.allow_suffix_skipping = v->as_bool();
  if (const Json* v = doc.find("restrict_levels"))
    opts.restrict_levels = levels_from_json(*v);
  return opts;
}

Json sim_to_json(const sim::SimOptions& opts) {
  Json::Object doc;
  doc["restart_policy"] =
      Json(opts.restart_policy == sim::RestartPolicy::kMoodyEscalate
               ? "escalate"
               : "retry");
  doc["take_final_checkpoint"] = Json(opts.take_final_checkpoint);
  return Json(std::move(doc));
}

sim::SimOptions sim_from_json(const Json& doc) {
  sim::SimOptions opts;
  require_known_keys(doc, "scenario.sim",
                     {"restart_policy", "take_final_checkpoint"});
  if (const Json* v = doc.find("restart_policy")) {
    const std::string& policy = v->as_string();
    if (policy == "escalate") {
      opts.restart_policy = sim::RestartPolicy::kMoodyEscalate;
    } else if (policy != "retry") {
      throw std::invalid_argument("unknown restart_policy: " + policy +
                                  " (use retry|escalate)");
    }
  }
  if (const Json* v = doc.find("take_final_checkpoint"))
    opts.take_final_checkpoint = v->as_bool();
  return opts;
}

}  // namespace

void require_known_keys(const Json& doc, const std::string& context,
                        std::initializer_list<const char*> known) {
  for (const auto& [key, value] : doc.as_object()) {
    bool recognized = false;
    for (const char* k : known) {
      if (key == k) {
        recognized = true;
        break;
      }
    }
    if (recognized) continue;
    std::string message = "unknown key \"" + key + "\" in " + context +
                          " (known keys:";
    for (const char* k : known) message += std::string(" ") + k;
    message += ")";
    throw std::invalid_argument(message);
  }
}

double DistributionSpec::resolved_mean(double system_mtbf) const {
  if (mean > 0.0) return mean;
  if (scale > 0.0) {
    switch (kind) {
      case Kind::kExponential: return scale;
      case Kind::kWeibull: return scale * std::tgamma(1.0 + 1.0 / shape);
      case Kind::kLogNormal: return scale * std::exp(0.5 * sigma * sigma);
    }
  }
  return system_mtbf;
}

std::unique_ptr<math::FailureDistribution> DistributionSpec::make(
    const systems::SystemConfig& system) const {
  const double m = resolved_mean(system.mtbf);
  switch (kind) {
    case Kind::kExponential:
      return std::make_unique<math::Exponential>(1.0 / m);
    case Kind::kWeibull:
      return std::make_unique<math::Weibull>(
          math::Weibull::with_mean(m, shape));
    case Kind::kLogNormal:
      return std::make_unique<math::LogNormal>(
          math::LogNormal::with_mean(m, sigma));
  }
  throw std::logic_error("unreachable distribution kind");
}

std::shared_ptr<const math::FailureLaw> DistributionSpec::family() const {
  switch (kind) {
    case Kind::kExponential: return nullptr;  // closed-form fast path
    case Kind::kWeibull: return math::FailureLaw::weibull(shape);
    case Kind::kLogNormal: return math::FailureLaw::lognormal(sigma);
  }
  throw std::logic_error("unreachable distribution kind");
}

DistributionSpec DistributionSpec::parse(const std::string& text) {
  DistributionSpec spec;
  const std::size_t colon = text.find(':');
  spec.kind = kind_from_name(text.substr(0, colon));
  if (colon != std::string::npos) {
    std::string params = text.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= params.size()) {
      const std::size_t comma = params.find(',', pos);
      const std::string item =
          params.substr(pos, comma == std::string::npos ? comma : comma - pos);
      pos = comma == std::string::npos ? params.size() + 1 : comma + 1;
      const std::size_t eq = item.find('=');
      if (item.empty() || eq == std::string::npos) {
        throw std::invalid_argument("failure law \"" + text +
                                    "\": expected key=value, got \"" + item +
                                    "\"");
      }
      const std::string key = item.substr(0, eq);
      double value = 0.0;
      try {
        std::size_t used = 0;
        value = std::stod(item.substr(eq + 1), &used);
        if (used != item.size() - eq - 1) throw std::invalid_argument("");
      } catch (const std::exception&) {
        throw std::invalid_argument("failure law \"" + text +
                                    "\": bad number in \"" + item + "\"");
      }
      if (key == "shape" && spec.kind == Kind::kWeibull) {
        spec.shape = value;
      } else if (key == "sigma" && spec.kind == Kind::kLogNormal) {
        spec.sigma = value;
      } else if (key == "mean") {
        spec.mean = value;
      } else if (key == "scale") {
        spec.scale = value;
      } else {
        throw std::invalid_argument("failure law \"" + text +
                                    "\": unknown key \"" + key + "\"" +
                                    kLawKeys);
      }
    }
  }
  check_distribution_spec(spec, "failure law");
  return spec;
}

std::string DistributionSpec::to_string() const {
  std::string out = kind_name(kind);
  char sep = ':';
  const auto emit = [&out, &sep](const char* key, double value) {
    out += sep;
    out += key;
    out += '=';
    out += param_to_string(value);
    sep = ',';
  };
  if (kind == Kind::kWeibull) emit("shape", shape);
  if (kind == Kind::kLogNormal) emit("sigma", sigma);
  if (mean > 0.0) emit("mean", mean);
  if (scale > 0.0) emit("scale", scale);
  return out;
}

DistributionSpec DistributionSpec::from_json(const Json& doc) {
  DistributionSpec spec;
  require_known_keys(doc, "scenario.failure",
                     {"law", "shape", "sigma", "mean", "scale"});
  if (const Json* v = doc.find("law")) spec.kind = kind_from_name(v->as_string());
  // As in parse(), shape belongs to Weibull and sigma to log-normal; a
  // parameter of another law is rejected, never silently ignored.
  const auto law_param = [&](const char* key, Kind owner, double& field) {
    const Json* v = doc.find(key);
    if (v == nullptr) return;
    if (spec.kind != owner) {
      throw std::invalid_argument(
          std::string("scenario.failure: unknown key \"") + key +
          "\" for law " + kind_name(spec.kind) + kLawKeys);
    }
    field = v->as_number();
  };
  law_param("shape", Kind::kWeibull, spec.shape);
  law_param("sigma", Kind::kLogNormal, spec.sigma);
  if (const Json* v = doc.find("mean")) spec.mean = v->as_number();
  if (const Json* v = doc.find("scale")) spec.scale = v->as_number();
  check_distribution_spec(spec, "scenario.failure");
  return spec;
}

Json DistributionSpec::to_json() const {
  Json::Object doc;
  doc["law"] = Json(kind_name(kind));
  if (kind == Kind::kWeibull) doc["shape"] = Json(shape);
  if (kind == Kind::kLogNormal) doc["sigma"] = Json(sigma);
  if (mean > 0.0) doc["mean"] = Json(mean);
  if (scale > 0.0) doc["scale"] = Json(scale);
  return Json(std::move(doc));
}

void ScenarioSpec::validate() const {
  if (system.levels() == 0) {
    throw std::invalid_argument("ScenarioSpec: no system configured");
  }
  system.validate();
  if (trials == 0) {
    throw std::invalid_argument("ScenarioSpec: trials must be >= 1");
  }
}

ScenarioSpec ScenarioSpec::from_json(const Json& doc) {
  ScenarioSpec spec;
  require_known_keys(doc, "scenario",
                     {"system", "model", "model_options", "failure",
                      "optimizer", "trials", "seed", "sim"});
  if (const Json* sys = doc.find("system")) {
    if (sys->is_string()) {
      spec.system_ref = sys->as_string();
      spec.system = core::load_system(spec.system_ref);
    } else {
      spec.system = core::system_from_json(*sys);
    }
  }
  if (const Json* v = doc.find("model")) spec.model = v->as_string();
  if (const Json* v = doc.find("model_options"))
    spec.model_options = parse_model_options(*v);
  if (const Json* v = doc.find("failure"))
    spec.distribution = DistributionSpec::from_json(*v);
  if (const Json* v = doc.find("optimizer"))
    spec.optimizer = optimizer_from_json(*v);
  if (const Json* v = doc.find("trials"))
    spec.trials = static_cast<std::size_t>(v->as_number());
  if (const Json* v = doc.find("seed"))
    spec.seed = static_cast<std::uint64_t>(v->as_number());
  if (const Json* v = doc.find("sim")) spec.sim = sim_from_json(*v);
  return spec;
}

Json ScenarioSpec::to_json() const {
  Json::Object doc;
  if (!system_ref.empty()) {
    doc["system"] = Json(system_ref);
  } else if (system.levels() > 0) {
    doc["system"] = core::to_json(system);
  }
  doc["model"] = Json(model);
  doc["model_options"] = model_options_to_json(model_options);
  doc["failure"] = distribution.to_json();
  doc["optimizer"] = optimizer_to_json(optimizer);
  doc["trials"] = Json(static_cast<double>(trials));
  doc["seed"] = Json(static_cast<double>(seed));
  doc["sim"] = sim_to_json(sim);
  return Json(std::move(doc));
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  return from_json(Json::parse(core::read_file(path)));
}

ScenarioMetrics::ScenarioMetrics(obs::MetricsRegistry& registry) {
  engine.context_hits = &registry.counter("engine.context_cache.hits");
  engine.context_misses = &registry.counter("engine.context_cache.misses");
  engine.evaluations = &registry.counter("engine.evaluations");
  optimizer.plans_swept = &registry.counter("optimizer.plans_swept");
  optimizer.plans_pruned = &registry.counter("optimizer.plans_pruned");
  optimizer.plans_pruned_bound =
      &registry.counter("optimizer.plans_pruned_bound");
  optimizer.plans_refined = &registry.counter("optimizer.plans_refined");
  optimizer.subsets_searched =
      &registry.counter("optimizer.subsets_searched");
  sim.trials = &registry.counter("sim.trials");
  sim.failures = &registry.counter("sim.failures");
  sim.checkpoints_completed =
      &registry.counter("sim.checkpoints_completed");
  sim.restarts_completed = &registry.counter("sim.restarts_completed");
  sim.restarts_failed = &registry.counter("sim.restarts_failed");
  sim.scratch_restarts = &registry.counter("sim.scratch_restarts");
  sim.capped_trials = &registry.counter("sim.capped_trials");
  sim.trial_time_minutes = &registry.histogram("sim.trial_time_minutes");
}

util::ThreadPoolMetrics pool_metrics(obs::MetricsRegistry& registry) {
  util::ThreadPoolMetrics m;
  m.tasks_run = &registry.counter("pool.tasks_run");
  m.queue_depth_high_water = &registry.gauge("pool.queue_depth_high_water");
  m.task_latency_ns = &registry.histogram("pool.task_latency_ns");
  return m;
}

namespace {

// select_plan and simulate_plan over a resolved metric wiring (empty when
// uninstrumented), so run_scenario wires once for both.

std::optional<ScenarioMetrics> wiring_for(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return std::nullopt;
  return ScenarioMetrics(*metrics);
}

core::TechniqueResult select_wired(
    const ScenarioSpec& spec, util::ThreadPool* pool,
    std::optional<ScenarioMetrics> wiring, obs::TraceSink* trace) {
  obs::Span span(trace, "scenario.select_plan", "scenario");
  if (spec.model != "dauwe") {
    return models::make_technique(spec.model)->select_plan(spec.system, pool);
  }
  // The cached fast path: one engine, contexts shared across the whole
  // sweep and refinement.
  core::OptimizerOptions options = spec.optimizer;
  EvaluationEngine engine = spec.make_engine();
  if (wiring) {
    options.metrics = &wiring->optimizer;
    engine.attach_metrics(wiring->engine);
  }
  options.trace = trace;
  engine.attach_trace(trace);
  const core::OptimizationResult best = engine.optimize(options, pool);
  return {"Dauwe et al.", best.plan, best.expected_time, best.efficiency};
}

sim::TrialStats simulate_wired(const ScenarioSpec& spec,
                               const sim::CompiledSchedule& schedule,
                               util::ThreadPool* pool,
                               std::optional<ScenarioMetrics> wiring,
                               obs::TraceSink* trace) {
  obs::Span span(trace, "scenario.simulate", "scenario");
  sim::SimOptions options = spec.sim;
  if (wiring) options.metrics = &wiring->sim;
  const auto law = sampling_law(spec);
  return sim::run_trials(spec.system, schedule, law.get(), spec.trials,
                         spec.seed, options, pool);
}

}  // namespace

core::TechniqueResult select_plan(const ScenarioSpec& spec,
                                  util::ThreadPool* pool,
                                  obs::MetricsRegistry* metrics,
                                  obs::TraceSink* trace) {
  spec.validate();
  return select_wired(spec, pool, wiring_for(metrics), trace);
}

std::unique_ptr<math::FailureDistribution> sampling_law(
    const ScenarioSpec& spec) {
  if (spec.distribution.is_default_exponential()) return nullptr;
  return spec.distribution.make(spec.system);
}

sim::TrialStats simulate_plan(const ScenarioSpec& spec,
                              const sim::CompiledSchedule& schedule,
                              util::ThreadPool* pool,
                              obs::MetricsRegistry* metrics,
                              obs::TraceSink* trace) {
  spec.validate();
  return simulate_wired(spec, schedule, pool, wiring_for(metrics), trace);
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                             util::ThreadPool* pool,
                             obs::MetricsRegistry* metrics,
                             obs::TraceSink* trace) {
  spec.validate();
  const auto wiring = wiring_for(metrics);
  ScenarioOutcome outcome;
  outcome.selected = select_wired(spec, pool, wiring, trace);
  outcome.stats = simulate_wired(
      spec,
      sim::CompiledSchedule::from_plan(spec.system, outcome.selected.plan),
      pool, wiring, trace);
  return outcome;
}

}  // namespace mlck::engine
