#include "verify/invariants.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/dauwe_kernel.h"
#include "core/dauwe_model.h"
#include "engine/evaluation.h"

namespace mlck::verify {

namespace {

std::string fmt(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v << " (" << std::hexfloat << v << ")";
  return out.str();
}

/// Bit-level equality: the only comparison bit-identity checks may use.
/// Treats -0.0 != +0.0 and NaN == same-payload NaN, which is exactly the
/// "same arithmetic executed" claim being tested.
bool bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_bits(CheckResult& result, const char* check, const char* what,
                 double a, double b) {
  if (bits_equal(a, b)) return;
  std::ostringstream detail;
  detail << what << ": " << fmt(a) << " vs " << fmt(b);
  result.fail(check, detail.str());
}

double pattern_of(const core::CheckpointPlan& plan) noexcept {
  double pattern = 1.0;
  for (std::size_t k = 0; k + 1 < plan.levels.size(); ++k) {
    pattern *= static_cast<double>(plan.counts[k] + 1);
  }
  return pattern;
}

/// Non-strict ordering with a tiny multiplicative slack for the last-bit
/// noise of re-deriving effective rates from a mutated system. Infinities
/// order naturally (inf >= anything, inf >= inf).
bool non_decreasing(double base, double worse) noexcept {
  if (std::isnan(base) || std::isnan(worse)) return false;
  if (std::isinf(base)) return std::isinf(worse) && worse > 0.0;
  return worse >= base * (1.0 - 1e-12);
}

void expect_non_decreasing(CheckResult& result, const char* check,
                           const char* what, double base, double worse) {
  if (non_decreasing(base, worse)) return;
  std::ostringstream detail;
  detail << what << ": base " << fmt(base) << " -> " << fmt(worse);
  result.fail(check, detail.str());
}

}  // namespace

void CheckResult::fail(std::string check, std::string detail) {
  failures.push_back({std::move(check), std::move(detail)});
}

void CheckResult::merge(CheckResult other) {
  for (auto& f : other.failures) failures.push_back(std::move(f));
  max_error = std::max(max_error, other.max_error);
}

CheckResult check_oracle_agreement(const VerifyCase& c,
                                   const TolerancePolicy& policy) {
  CheckResult result;
  const core::DauweModel model(c.options, c.law.family);
  // The case's plan plus tau0 variants on both sides of it, so the oracle
  // also sees the neighboring feasibility regime.
  const double factors[] = {0.6, 1.0, 1.7};
  for (const double f : factors) {
    core::CheckpointPlan plan = c.plan;
    plan.tau0 *= f;
    double condition = 1.0;
    const double reference =
        oracle_expected_time(c.system, plan, c.options, &condition,
                             c.law.oracle);
    const double value = model.expected_time(c.system, plan);
    // Cap-regime saturation: deep in the infeasible regime the retry
    // factors are ~e^{hundreds} and the derivations saturate to inf at
    // different spots (closed forms overflow, survival underflows, the
    // oracle cuts its substitution windows). Beyond any physical scale
    // "absurdly large" and "infinite" are the same verdict, so compare
    // nothing there.
    constexpr double kSaturated = 1e50;
    if (value > kSaturated && reference > kSaturated) continue;
    if (std::isfinite(value) && std::isfinite(reference)) {
      const double band =
          policy.abs + policy.effective_rel(condition) *
                           std::max(std::abs(value), std::abs(reference));
      result.max_error =
          std::max(result.max_error, std::abs(value - reference) / band);
    }
    if (policy.within(value, reference, condition)) continue;
    std::ostringstream detail;
    detail << "tau0=" << fmt(plan.tau0) << " model=" << fmt(value)
           << " oracle=" << fmt(reference) << " condition=" << condition
           << " rel_band=" << policy.effective_rel(condition);
    result.fail("oracle_agreement", detail.str());
  }
  return result;
}

CheckResult check_bit_identity(const VerifyCase& c) {
  CheckResult result;
  const core::DauweModel model(c.options, c.law.family);
  const core::DauweKernel kernel(c.system, c.plan.levels, c.options,
                                 c.law.family);
  const engine::EvaluationEngine engine(c.system, c.options, c.law.family);

  const double t_model = model.expected_time(c.system, c.plan);
  const double t_kernel = kernel.expected_time(c.plan.tau0, c.plan.counts);
  const double t_engine = engine.expected_time(c.plan);

  // Drive the staged cursor by hand, the way the optimizer sweep does.
  auto cursor = kernel.cursor();
  cursor.begin(c.plan.tau0);
  for (std::size_t k = 0; k + 1 < c.plan.levels.size(); ++k) {
    cursor.push_stage(static_cast<int>(k), c.plan.counts[k]);
  }
  const double t_cursor = cursor.finish_expected_time(pattern_of(c.plan));

  expect_bits(result, "bit_identity", "model vs kernel", t_model, t_kernel);
  expect_bits(result, "bit_identity", "model vs cursor", t_model, t_cursor);
  expect_bits(result, "bit_identity", "model vs engine", t_model, t_engine);

  const core::Prediction p_model = model.predict(c.system, c.plan);
  const core::Prediction p_kernel = kernel.predict(c.plan);
  const core::Prediction p_engine = engine.predict(c.plan);
  const auto compare_prediction = [&](const char* pair,
                                      const core::Prediction& a,
                                      const core::Prediction& b) {
    const std::pair<const char*, std::pair<double, double>> fields[] = {
        {"expected_time", {a.expected_time, b.expected_time}},
        {"efficiency", {a.efficiency, b.efficiency}},
        {"compute", {a.breakdown.compute, b.breakdown.compute}},
        {"checkpoint_ok", {a.breakdown.checkpoint_ok, b.breakdown.checkpoint_ok}},
        {"checkpoint_failed",
         {a.breakdown.checkpoint_failed, b.breakdown.checkpoint_failed}},
        {"restart_ok", {a.breakdown.restart_ok, b.breakdown.restart_ok}},
        {"restart_failed",
         {a.breakdown.restart_failed, b.breakdown.restart_failed}},
        {"rework_compute",
         {a.breakdown.rework_compute, b.breakdown.rework_compute}},
        {"rework_checkpoint",
         {a.breakdown.rework_checkpoint, b.breakdown.rework_checkpoint}},
        {"scratch_rework",
         {a.breakdown.scratch_rework, b.breakdown.scratch_rework}},
    };
    for (const auto& [name, values] : fields) {
      std::ostringstream what;
      what << pair << " predict." << name;
      expect_bits(result, "bit_identity", what.str().c_str(), values.first,
                  values.second);
    }
  };
  compare_prediction("model vs kernel", p_model, p_kernel);
  compare_prediction("model vs engine", p_model, p_engine);
  return result;
}

CheckResult check_metamorphic(const VerifyCase& c) {
  CheckResult result;
  const core::DauweModel model(c.options, c.law.family);
  const double base = model.expected_time(c.system, c.plan);
  if (std::isnan(base)) {
    result.fail("metamorphic", "expected_time is NaN on the base case");
    return result;
  }
  if (std::isfinite(base) && base < c.system.base_time * (1.0 - 1e-12)) {
    std::ostringstream detail;
    detail << "expected_time " << fmt(base) << " below T_B "
           << fmt(c.system.base_time);
    result.fail("metamorphic", detail.str());
  }

  {
    // Halving the MTBF doubles every severity rate; more failures can
    // never speed the application up. Feasibility is rate-independent.
    systems::SystemConfig harsher = c.system;
    harsher.mtbf *= 0.5;
    expect_non_decreasing(result, "metamorphic", "mtbf x0.5", base,
                          model.expected_time(harsher, c.plan));
  }
  {
    // Costlier checkpoints (and restarts) can never speed it up either.
    systems::SystemConfig costlier = c.system;
    for (double& d : costlier.checkpoint_cost) d *= 2.0;
    for (double& r : costlier.restart_cost) r *= 2.0;
    expect_non_decreasing(result, "metamorphic", "costs x2", base,
                          model.expected_time(costlier, c.plan));
  }
  if (std::isfinite(base)) {
    // A longer application only adds top-level periods; checked only from
    // a feasible base because scaling T_B can turn infeasible feasible.
    systems::SystemConfig longer = c.system;
    longer.base_time *= 2.0;
    expect_non_decreasing(result, "metamorphic", "base_time x2", base,
                          model.expected_time(longer, c.plan));
  }
  return result;
}

CheckResult check_optimizer_dominance(const VerifyCase& c,
                                      const core::OptimizerOptions& grid) {
  CheckResult result;
  const core::DauweModel model(c.options, c.law.family);
  core::OptimizerOptions with = grid;
  with.allow_suffix_skipping = true;
  core::OptimizerOptions without = grid;
  without.allow_suffix_skipping = false;

  const auto best = [&](const core::OptimizerOptions& opt,
                        bool& feasible) -> double {
    try {
      feasible = true;
      return core::optimize_intervals(model, c.system, opt).expected_time;
    } catch (const std::runtime_error&) {
      feasible = false;
      return 0.0;
    }
  };
  bool with_feasible = false;
  bool without_feasible = false;
  const double t_with = best(with, with_feasible);
  const double t_without = best(without, without_feasible);

  if (!without_feasible) return result;  // nothing to dominate
  if (!with_feasible) {
    result.fail("optimizer_dominance",
                "suffix-skipping search found no feasible plan but the "
                "restricted search did");
    return result;
  }
  // The skipping search enumerates a superset of the non-skipping plan
  // space on the identical grid, so its minimum cannot be worse.
  if (t_with <= t_without) return result;
  std::ostringstream detail;
  detail << "best with skipping " << fmt(t_with) << " > best without "
         << fmt(t_without);
  result.fail("optimizer_dominance", detail.str());
  return result;
}

}  // namespace mlck::verify
