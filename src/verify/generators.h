#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dauwe_model.h"
#include "core/plan.h"
#include "math/failure_law.h"
#include "systems/system_config.h"
#include "util/rng.h"
#include "verify/oracle.h"

namespace mlck::verify {

/// One failure law as the verification harness sees it: the quadrature
/// oracle's selector, the model-side family (null for the exponential
/// closed-form fast path), and a stable display name for reports. Build
/// these through the factories below; a family holds only its shape
/// constants, so a pool entry is cheap to copy into every generated case.
struct VerifyLaw {
  OracleLaw oracle;
  std::shared_ptr<const math::FailureLaw> family;  ///< null == exponential
  std::string name = "exponential";
  /// Relative model-vs-simulator equivalence margin for the Welch
  /// validation. Non-exponential scenarios drive the simulator through a
  /// *thinned renewal* process that the per-severity analytic model only
  /// approximates, so plain statistical significance would flag a correct
  /// implementation; a Welch rejection is counted only when the relative
  /// gap also exceeds this margin (docs/MODELS.md). 0 keeps the pure
  /// Welch criterion of the exponential arm.
  double welch_rel_tolerance = 0.0;
};

VerifyLaw exponential_verify_law();
VerifyLaw weibull_verify_law(double shape);
VerifyLaw lognormal_verify_law(double sigma);
/// The `mlck selftest --laws=all` pool: exponential, Weibull(0.7),
/// Weibull(0.02), Weibull(0.007), Weibull(0.0065) and log-normal(1.0).
std::vector<VerifyLaw> all_verify_laws();

/// Distribution bounds for the randomized verification generators. The
/// defaults span the paper's Table I regimes (MTBF 3 min .. 7000 min,
/// costs 0.008 .. 30 min) with extra headroom on both sides, so the
/// harness exercises configurations well outside the hand-picked golden
/// points. All ranges are log-uniform unless noted.
struct GeneratorOptions {
  int min_levels = 1;
  int max_levels = 5;
  double mtbf_min = 20.0;       ///< minutes
  double mtbf_max = 20000.0;
  double cost_min = 0.005;      ///< minutes, per level
  double cost_max = 30.0;
  double base_min = 100.0;      ///< minutes
  double base_max = 5000.0;
  int max_count = 12;           ///< pattern counts drawn uniformly 0..max
  /// Probability that a generated plan's tau0 is drawn from the feasible
  /// band (at least one top-level period fits in T_B); the remainder is
  /// drawn past the bound so the +inf paths stay covered.
  double feasible_fraction = 0.85;
  /// Failure-law pool for the stream. Empty (the default) keeps every
  /// case exponential and makes NO law draw, so the random streams — and
  /// with them every existing seed's cases — are unchanged. A non-empty
  /// pool draws one entry per case, after all other fields.
  std::vector<VerifyLaw> laws;
};

/// Random structurally-valid system: severity shares normalized to 1,
/// costs mostly (but not always) ascending, restart costs usually equal
/// to checkpoint costs as in Table I but sometimes independently scaled.
systems::SystemConfig random_system(util::Rng& rng,
                                    const GeneratorOptions& options = {});

/// Random non-empty ascending subset of {0..levels-1}.
std::vector<int> random_subset(util::Rng& rng, int levels);

/// Random valid plan over a random subset of the system's levels. The
/// plan validates against @p system; tau0 lands in the feasible band with
/// probability options.feasible_fraction.
core::CheckpointPlan random_plan(util::Rng& rng,
                                 const systems::SystemConfig& system,
                                 const GeneratorOptions& options = {});

/// Random model-option flags, biased toward the paper's full model.
core::DauweOptions random_dauwe_options(util::Rng& rng);

/// One self-describing verification case. `seed` is the *stream* seed the
/// case was generated from (derive_stream_seed(base_seed, index)), so any
/// failing case replays exactly from its report line regardless of how
/// many cases ran before it.
struct VerifyCase {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  systems::SystemConfig system;
  core::CheckpointPlan plan;
  core::DauweOptions options;
  /// The case's failure law (exponential unless GeneratorOptions::laws is
  /// non-empty); checks thread law.family into the model side and
  /// law.oracle into the quadrature side.
  VerifyLaw law;
};

/// Deterministically generates case @p index of the stream rooted at
/// @p base_seed. Case k never depends on cases < k.
VerifyCase make_case(std::uint64_t base_seed, std::size_t index,
                     const GeneratorOptions& options = {});

}  // namespace mlck::verify
