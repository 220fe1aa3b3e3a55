#include "serve/request.h"

#include <stdexcept>
#include <utility>

#include "core/serialize.h"
#include "core/technique.h"
#include "systems/test_systems.h"

namespace mlck::serve {

namespace {

using util::Json;

Op op_from_name(const std::string& name) {
  if (name == "ping") return Op::kPing;
  if (name == "stats") return Op::kStats;
  if (name == "shutdown") return Op::kShutdown;
  if (name == "optimize") return Op::kOptimize;
  if (name == "predict") return Op::kPredict;
  if (name == "scenario") return Op::kScenario;
  throw std::invalid_argument(
      "request: unknown op \"" + name +
      "\" (use ping|stats|shutdown|optimize|predict|scenario)");
}

/// Resolves the request "system" member into @p spec. Named systems go
/// through the Table I registry only — core::load_system's path fallback
/// would turn a request string into a server-side file read.
void resolve_system(const Json& sys, engine::ScenarioSpec& spec) {
  if (sys.is_string()) {
    spec.system_ref = sys.as_string();
    try {
      spec.system = systems::table1_system(spec.system_ref);
    } catch (const std::out_of_range&) {
      throw std::invalid_argument(
          "request: unknown system \"" + spec.system_ref +
          "\" (named systems resolve against Table I: M, B, D1..D9; pass an "
          "inline system document otherwise)");
    }
  } else {
    spec.system = core::system_from_json(sys);
    spec.system_ref.clear();
  }
}

/// Assembles the subset of scenario-document sections an optimize/predict
/// request may carry, and parses them with the scenario parser so the two
/// grammars never drift.
engine::ScenarioSpec spec_from_sections(const Json& doc) {
  Json::Object scenario;
  for (const char* key : {"model_options", "failure", "optimizer"}) {
    if (const Json* v = doc.find(key)) scenario[key] = *v;
  }
  engine::ScenarioSpec spec =
      engine::ScenarioSpec::from_json(Json(std::move(scenario)));
  const Json* sys = doc.find("system");
  if (sys == nullptr) {
    throw std::invalid_argument("request: \"system\" is required");
  }
  resolve_system(*sys, spec);
  return spec;
}

Json summary_to_json(const stats::Summary& s) {
  Json::Object doc;
  doc["count"] = Json(static_cast<double>(s.count));
  doc["mean"] = Json(s.mean);
  doc["stddev"] = Json(s.stddev);
  doc["min"] = Json(s.min);
  doc["max"] = Json(s.max);
  return Json(std::move(doc));
}

Json quantiles_to_json(const stats::Quantiles& q) {
  Json::Object doc;
  doc["p05"] = Json(q.p05);
  doc["p25"] = Json(q.p25);
  doc["median"] = Json(q.median);
  doc["p75"] = Json(q.p75);
  doc["p95"] = Json(q.p95);
  return Json(std::move(doc));
}

Json breakdown_to_json(const sim::SimBreakdown& b) {
  Json::Object doc;
  doc["useful"] = Json(b.useful);
  doc["checkpoint_ok"] = Json(b.checkpoint_ok);
  doc["checkpoint_failed"] = Json(b.checkpoint_failed);
  doc["restart_ok"] = Json(b.restart_ok);
  doc["restart_failed"] = Json(b.restart_failed);
  doc["rework_compute"] = Json(b.rework_compute);
  doc["rework_checkpoint"] = Json(b.rework_checkpoint);
  doc["rework_restart"] = Json(b.rework_restart);
  return Json(std::move(doc));
}

Json breakdown_to_json(const core::ModelBreakdown& b) {
  Json::Object doc;
  doc["compute"] = Json(b.compute);
  doc["checkpoint_ok"] = Json(b.checkpoint_ok);
  doc["checkpoint_failed"] = Json(b.checkpoint_failed);
  doc["restart_ok"] = Json(b.restart_ok);
  doc["restart_failed"] = Json(b.restart_failed);
  doc["rework_compute"] = Json(b.rework_compute);
  doc["rework_checkpoint"] = Json(b.rework_checkpoint);
  doc["scratch_rework"] = Json(b.scratch_rework);
  return Json(std::move(doc));
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
    case Op::kOptimize: return "optimize";
    case Op::kPredict: return "predict";
    case Op::kScenario: return "scenario";
  }
  return "unknown";
}

Request Request::parse(const Json& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("request: expected a JSON object");
  }
  const Json* op_member = doc.find("op");
  if (op_member == nullptr) {
    throw std::invalid_argument("request: \"op\" is required");
  }
  Request request;
  request.op = op_from_name(op_member->as_string());
  if (const Json* id = doc.find("id")) request.id = *id;

  switch (request.op) {
    case Op::kPing:
    case Op::kStats:
    case Op::kShutdown:
      engine::require_known_keys(
          doc, std::string("request op ") + op_name(request.op),
          {"op", "id"});
      break;
    case Op::kOptimize:
      engine::require_known_keys(doc, "request op optimize",
                                 {"op", "id", "system", "model_options",
                                  "failure", "optimizer"});
      request.spec = spec_from_sections(doc);
      request.spec.validate();
      break;
    case Op::kPredict: {
      engine::require_known_keys(doc, "request op predict",
                                 {"op", "id", "system", "model_options",
                                  "failure", "optimizer", "plan"});
      request.spec = spec_from_sections(doc);
      request.spec.validate();
      const Json* plan = doc.find("plan");
      if (plan == nullptr) {
        throw std::invalid_argument("request: predict requires \"plan\"");
      }
      request.plan = core::plan_from_json(*plan);
      request.plan.validate(request.spec.system);
      break;
    }
    case Op::kScenario: {
      engine::require_known_keys(doc, "request op scenario",
                                 {"op", "id", "spec"});
      const Json* spec = doc.find("spec");
      if (spec == nullptr) {
        throw std::invalid_argument("request: scenario requires \"spec\"");
      }
      // The scenario parser resolves string systems through
      // core::load_system (with its file fallback); intercept the member
      // and resolve it with the request's stricter rule instead.
      Json::Object body = spec->as_object();
      Json system;
      if (const auto it = body.find("system"); it != body.end()) {
        system = it->second;
        body.erase(it);
      } else {
        throw std::invalid_argument(
            "request: scenario spec requires \"system\"");
      }
      request.spec = engine::ScenarioSpec::from_json(Json(std::move(body)));
      resolve_system(system, request.spec);
      request.spec.validate();
      break;
    }
  }
  return request;
}

std::string Request::canonical_key() const {
  Json doc = spec.to_json();
  Json::Object& body = doc.make_object();
  // to_json writes a Table I system by name; the key always inlines it.
  if (Json& system = body["system"]; !system.is_object()) {
    system = core::to_json(spec.system);
  }
  if (op == Op::kOptimize || op == Op::kPredict) {
    // Scenario-only fields: two optimize requests differing only in
    // simulation controls must share one optimizer run.
    body.erase("model");
    body.erase("trials");
    body.erase("seed");
    body.erase("sim");
  }
  if (op == Op::kPredict) body["plan"] = core::to_json(plan);
  Json::Object key;
  key["op"] = Json(op_name(op));
  key["spec"] = std::move(doc);
  return Json(std::move(key)).dump();
}

util::Json evaluate(const Request& request, util::ThreadPool* pool,
                    obs::MetricsRegistry* registry) {
  switch (request.op) {
    case Op::kOptimize: {
      engine::EvaluationEngine eng = request.spec.make_engine();
      core::OptimizerOptions options = request.spec.optimizer;
      std::optional<engine::ScenarioMetrics> wiring;
      if (registry != nullptr) {
        wiring.emplace(*registry);
        eng.attach_metrics(wiring->engine);
        options.metrics = &wiring->optimizer;
      }
      const core::OptimizationResult best = eng.optimize(options, pool);
      Json::Object result;
      result["plan"] = core::to_json(best.plan);
      result["expected_time"] = Json(best.expected_time);
      result["efficiency"] = Json(best.efficiency);
      return Json(std::move(result));
    }
    case Op::kPredict: {
      engine::EvaluationEngine eng = request.spec.make_engine();
      std::optional<engine::ScenarioMetrics> wiring;
      if (registry != nullptr) {
        wiring.emplace(*registry);
        eng.attach_metrics(wiring->engine);
      }
      const core::Prediction prediction = eng.predict(request.plan);
      Json::Object result;
      result["plan"] = core::to_json(request.plan);
      result["expected_time"] = Json(prediction.expected_time);
      result["efficiency"] = Json(prediction.efficiency);
      result["breakdown"] = breakdown_to_json(prediction.breakdown);
      return Json(std::move(result));
    }
    case Op::kScenario: {
      const engine::ScenarioOutcome outcome =
          engine::run_scenario(request.spec, pool, registry);
      Json::Object result;
      result["selected"] = to_json(outcome.selected);
      result["stats"] = to_json(outcome.stats);
      return Json(std::move(result));
    }
    case Op::kPing:
    case Op::kStats:
    case Op::kShutdown:
      break;
  }
  throw std::logic_error("serve::evaluate called with a non-compute op");
}

std::string ok_response(const Json& id, Json result) {
  return ok_response_text(id, result.dump());
}

std::string ok_response_text(const Json& id, std::string_view result_text) {
  // The members in key order, as Json{id, ok, result}.dump() writes them.
  const std::string id_text = id.dump();
  std::string out;
  out.reserve(id_text.size() + result_text.size() + 30);
  out += R"({"id":)";
  out += id_text;
  out += R"(,"ok":true,"result":)";
  out += result_text;
  out += '}';
  return out;
}

std::string error_response(const Json& id, const std::string& code,
                           const std::string& message) {
  Json::Object error;
  error["code"] = Json(code);
  error["message"] = Json(message);
  Json::Object doc;
  doc["id"] = id;
  doc["ok"] = Json(false);
  doc["error"] = Json(std::move(error));
  return Json(std::move(doc)).dump();
}

Json to_json(const sim::TrialStats& stats) {
  Json::Object doc;
  doc["efficiency"] = summary_to_json(stats.efficiency);
  doc["efficiency_quantiles"] = quantiles_to_json(stats.efficiency_quantiles);
  doc["total_time"] = summary_to_json(stats.total_time);
  doc["time_shares"] = breakdown_to_json(stats.time_shares);
  doc["mean_failures"] = Json(stats.mean_failures);
  doc["trials"] = Json(static_cast<double>(stats.trials));
  doc["capped_trials"] = Json(static_cast<double>(stats.capped_trials));
  return Json(std::move(doc));
}

Json to_json(const core::TechniqueResult& result) {
  Json::Object doc;
  doc["technique"] = Json(result.technique);
  doc["plan"] = core::to_json(result.plan);
  doc["predicted_time"] = Json(result.predicted_time);
  doc["predicted_efficiency"] = Json(result.predicted_efficiency);
  return Json(std::move(doc));
}

}  // namespace mlck::serve
