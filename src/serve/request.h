#pragma once

#include <string>
#include <string_view>

#include "core/plan.h"
#include "engine/scenario.h"
#include "obs/registry.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace mlck::serve {

/// The advisory service's request grammar (docs/SERVING.md). A request is
/// one JSON object per frame:
///
///   {"op": "optimize" | "predict" | "scenario" | "ping" | "stats" |
///          "shutdown",
///    "id": <any JSON value, echoed verbatim>,          // optional
///    "system": "D3" | {inline system document},        // compute ops
///    "model_options": {...}, "failure": {...},         // optional
///    "optimizer": {...},                               // optional
///    "plan": {...},                                    // predict only
///    "spec": {full scenario document}}                 // scenario only
///
/// optimize/predict run the Dauwe model through the cached
/// EvaluationEngine — the bit-identity contract is defined against that
/// direct path. scenario wraps engine::run_scenario (any registered
/// model; deterministic by seed and independent of thread count).
///
/// Named systems resolve through systems::table1_system ONLY — never
/// through core::load_system, whose file-path fallback would let a remote
/// peer read server-side paths.
enum class Op {
  kPing,      ///< liveness probe; result {"pong": true}
  kStats,     ///< server counters snapshot (not cached; non-deterministic)
  kShutdown,  ///< ask the daemon to drain and exit
  kOptimize,  ///< interval search -> {plan, expected_time, efficiency}
  kPredict,   ///< forecast one plan -> {expected_time, efficiency, breakdown}
  kScenario,  ///< select + simulate -> {selected, stats}
};

const char* op_name(Op op) noexcept;

/// One parsed, fully-resolved request. The spec always carries a resolved
/// system; trials/seed/sim matter for scenario only.
struct Request {
  Op op = Op::kPing;
  util::Json id;  ///< echoed verbatim in the response; null when absent
  engine::ScenarioSpec spec;
  core::CheckpointPlan plan;  ///< predict only

  /// True for the ops that run model/simulator work (and are therefore
  /// admitted, coalesced, and cached); false for control ops.
  bool is_compute() const noexcept {
    return op == Op::kOptimize || op == Op::kPredict || op == Op::kScenario;
  }

  /// Strict parse; throws std::invalid_argument / std::out_of_range /
  /// util::JsonError with a deterministic message on any violation
  /// (unknown op, unknown key, missing system, unresolvable system name,
  /// malformed section). The caller maps these to a "bad_request" error
  /// response.
  static Request parse(const util::Json& doc);

  /// The canonical fingerprint text this request coalesces and caches
  /// under: a compact dump of {"op", "spec"} with the system always
  /// inlined (so "D3" and its inline document share a key) and, for
  /// optimize/predict, the scenario-only fields (model, trials, seed,
  /// sim) dropped. util::Json objects are sorted maps, so two requests
  /// that differ only in member order produce identical keys.
  std::string canonical_key() const;
};

/// Runs one compute request and returns its deterministic result
/// document. This is the single evaluation path shared by the daemon
/// executor, the thin CLI client's local fallback, and the contract
/// tests — byte-identity between "direct call" and "daemon round-trip"
/// is identity of this function with itself.
///
/// The result contains only run-invariant fields: the optimizer's
/// evaluation counts, for instance, vary run to run under pool+prune
/// while the winning plan does not, so they are deliberately excluded
/// (observable through the daemon's metrics instead).
///
/// @p registry, when non-null, wires the run under the standard
/// engine.* / optimizer.* / sim.* names — observe-only, results are
/// bit-identical either way. Throws std::invalid_argument for requests
/// whose resolved spec fails validation (e.g. a predict plan that does
/// not fit the system).
util::Json evaluate(const Request& request, util::ThreadPool* pool = nullptr,
                    obs::MetricsRegistry* registry = nullptr);

/// Serialized response envelopes (compact dump — the exact bytes that go
/// on the wire). ok_response_text splices @p result_text, an already
/// serialized result document, into the ok envelope without parsing it:
/// the plan cache's hits and coalesced waiters answer through it, and
/// ok_response is ok_response_text(id, result.dump()).
std::string ok_response(const util::Json& id, util::Json result);
std::string ok_response_text(const util::Json& id,
                             std::string_view result_text);
std::string error_response(const util::Json& id, const std::string& code,
                           const std::string& message);

/// Serialization helpers shared with the bench/e2e drivers.
util::Json to_json(const sim::TrialStats& stats);
util::Json to_json(const core::TechniqueResult& result);

}  // namespace mlck::serve
