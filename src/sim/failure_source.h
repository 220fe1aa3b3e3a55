#pragma once

#include <vector>

#include "math/distribution.h"
#include "systems/system_config.h"
#include "util/rng.h"

namespace mlck::sim {

/// One failure: how long after the previous failure it strikes (wall-clock
/// minutes — failures hit computation, checkpoints, and restarts alike)
/// and its severity class (0-based system level required to recover).
struct FailureEvent {
  double interarrival = 0.0;
  int severity = 0;
};

/// Builds the cumulative severity distribution for @p system.
///
/// Validates the severity mix in every build type: entries must be
/// non-negative and sum to 1 within 1e-3 (the same tolerance
/// systems::SystemConfig::validate uses), otherwise a
/// std::invalid_argument naming `severity_probability` is thrown. The
/// final CDF entry is pinned to exactly 1.0 so a floating-point shortfall
/// in the accumulated sum (0.999...) can never leave the top bucket
/// unreachable in code that, unlike util::Rng::discrete_from_cdf, compares
/// against the last entry. Pinning is behaviour-neutral for
/// discrete_from_cdf itself, which never reads the final entry.
std::vector<double> severity_cdf(const systems::SystemConfig& system);

/// Produces the failure process driving one simulated trial. Pluggable so
/// tests can script exact failure times while experiments draw from the
/// exponential model.
class FailureSource {
 public:
  virtual ~FailureSource() = default;

  /// Next failure, relative to the previous one (the first is relative to
  /// time zero). An interarrival of +infinity means "no more failures".
  virtual FailureEvent next() = 0;
};

/// Exponential failure process matching the paper's assumptions:
/// interarrivals ~ Exp(lambda_total); severities drawn independently from
/// the system's severity distribution.
///
/// `final` on purpose: the batch trial runner instantiates the simulator
/// loop directly against this type (no virtual dispatch per event), and
/// reuses one source across a whole chunk of trials via reset() so the
/// severity CDF is built once, not once per trial.
class RandomFailureSource final : public FailureSource {
 public:
  RandomFailureSource(const systems::SystemConfig& system, util::Rng rng);

  FailureEvent next() override { return draw(); }

  /// Hot-path draw, callable without virtual dispatch. Consumes exactly
  /// two uniforms: one for the interarrival, one for the severity.
  FailureEvent draw() noexcept {
    FailureEvent ev;
    ev.interarrival = rng_.exponential(lambda_total_);
    ev.severity = static_cast<int>(rng_.discrete_from_cdf(severity_cdf_));
    return ev;
  }

  /// Rewinds the source onto a fresh per-trial stream, keeping the
  /// severity table. Equivalent to constructing a new source with the
  /// same system and @p rng.
  void reset(util::Rng rng) noexcept { rng_ = rng; }

 private:
  double lambda_total_;
  std::vector<double> severity_cdf_;
  util::Rng rng_;
};

/// Renewal failure process: inter-arrivals drawn i.i.d. from an arbitrary
/// FailureDistribution, severities from the system's severity mix. With an
/// Exponential distribution this coincides (in distribution) with
/// RandomFailureSource; with Weibull shape < 1 it produces the bursty
/// failure clustering reported for production HPC systems. The analytic
/// model approximates this as one closed-form law per severity class
/// (docs/MODELS.md) — close, but not the same process, since thinning a
/// renewal process by severity does not yield independent renewal
/// processes; `mlck selftest --laws=...` bounds the gap with per-law
/// Welch margins. Used by `mlck scenario` and the distribution ablation.
class RenewalFailureSource final : public FailureSource {
 public:
  /// @p interarrival must outlive this source (not owned).
  RenewalFailureSource(const systems::SystemConfig& system,
                       const math::FailureDistribution& interarrival,
                       util::Rng rng);

  FailureEvent next() override { return draw(); }

  /// Hot-path draw, callable without virtual dispatch. Consumes the
  /// distribution's documented uniform budget plus one severity uniform.
  FailureEvent draw() {
    FailureEvent ev;
    ev.interarrival = interarrival_.sample(rng_);
    ev.severity = static_cast<int>(rng_.discrete_from_cdf(severity_cdf_));
    return ev;
  }

  /// Rewinds onto a fresh per-trial stream, keeping the severity table.
  void reset(util::Rng rng) noexcept { rng_ = rng; }

 private:
  const math::FailureDistribution& interarrival_;
  std::vector<double> severity_cdf_;
  util::Rng rng_;
};

/// Fixed failure schedule for deterministic tests: events are given as
/// *absolute* failure times (converted to interarrivals internally); after
/// the script is exhausted no further failures occur.
class ScriptedFailureSource final : public FailureSource {
 public:
  struct AbsoluteFailure {
    double time = 0.0;
    int severity = 0;
  };

  /// Failure times must be strictly increasing; otherwise throws
  /// std::invalid_argument naming the offending script index, in every
  /// build type (a silently-reordered script makes the replayed trial
  /// nonsense, which release builds used to accept).
  explicit ScriptedFailureSource(std::vector<AbsoluteFailure> script);

  FailureEvent next() override;

 private:
  std::vector<AbsoluteFailure> script_;
  std::size_t index_ = 0;
  double previous_time_ = 0.0;
};

}  // namespace mlck::sim
