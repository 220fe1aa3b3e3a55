#pragma once

#include <memory>
#include <string>
#include <vector>

#include "math/distribution.h"
#include "util/rng.h"

namespace mlck::math {

/// Production-grade tabulation of one failure law: the adaptive-Simpson
/// machinery that previously lived only in the verify oracle, promoted to
/// a reusable primitive. Build-time quadrature populates a log-spaced grid
/// with the law's log-CDF, log-survival, and log partial first moment
/// M(t) = integral_0^t x dF; queries interpolate with a monotone cubic
/// (Fritsch-Carlson) in log-log space, so every derived quantity the model
/// needs —
///
///   P(t)                (interval failure probability)
///   E(t) = M(t) / P(t)  (truncated mean, paper Eqn. 2 generalized)
///   P / (1 - P)         (the geometric retry factor)
///
/// — is one table lookup instead of one adaptive integral. Storing *logs*
/// keeps the retry factor exp(logF - logS) numerically meaningful at both
/// extremes: tiny windows (P ~ 1e-300) and windows deep past the cap
/// (S underflows and retries saturate to +inf) both behave like the
/// exponential closed forms do.
///
/// Domain policy: the grid spans [lo_fraction * mean, cap], where the cap
/// starts at the shared math::kDomainCapMultiple means (the verify
/// oracle's 60/rate rule) and extends until the tail mass drops below
/// Options::tail_survival — heavy-tailed Weibull shapes keep real mass
/// past 60 means, so a fixed cap would bias E(t) there. Below the grid the
/// tables extrapolate linearly in log-log (exact for Weibull, conservative
/// otherwise — the probabilities there are negligible either way); above
/// it F and M saturate (E(t) -> mean) and log-survival keeps its end
/// slope.
///
/// Immutable after construction; shared freely across threads.
class TabulatedLaw {
 public:
  struct Options {
    double lo_fraction = 1e-4;     ///< grid start as a fraction of the mean
    int points_per_decade = 64;    ///< log-grid density
    double tail_survival = 1e-14;  ///< grid extends until S(x) <= this
    /// Hard stop for the tail extension, as a multiple of the mean (a
    /// pathological law cannot grow the table without bound).
    double hi_cap_multiple = 1e9;
  };

  /// Tabulates @p law (used during construction only; not retained).
  explicit TabulatedLaw(const FailureDistribution& law)
      : TabulatedLaw(law, Options()) {}
  TabulatedLaw(const FailureDistribution& law, Options options);

  double cdf(double t) const noexcept;
  double survival(double t) const noexcept;
  double truncated_mean(double t) const noexcept;
  double expected_retries(double t) const noexcept;

  /// F^{-1}(u): the smallest t with cdf(t) >= u, via the inverse-CDF
  /// tables built at construction (monotone Hermite over the same log-log
  /// grid, knots at the forward table's (log F_i, log x_i) pairs). O(1)
  /// amortized: a bounded Hermite cell search instead of per-draw numeric
  /// inversion. quantile(u) for u <= 0 is 0; for u >= 1 it is +infinity.
  /// Outside the tabulated probability range the inverse extends its end
  /// slopes in log-log space, matching the forward tables' extrapolation
  /// convention (exact power-law/exponential-like tails; the mass there
  /// is below Options::tail_survival by construction).
  double quantile(double u) const noexcept;

  /// S^{-1}(s) == quantile(1 - s), computed on the survival-side table so
  /// deep-tail draws (s near 0) keep full precision where 1 - s would
  /// round. inverse_survival(s) for s >= 1 is 0; for s <= 0, +infinity.
  double inverse_survival(double s) const noexcept;

  /// Draws one sample by inverse transform: inverse_survival(u) with
  /// u = rng.uniform_pos(). Consumes exactly ONE uniform and uses the
  /// survival convention — the same stream shape as Weibull::sample — so
  /// a per-trial draw stream stays aligned draw-for-draw when a table
  /// replaces a closed-form single-uniform sampler. The drawn *values*
  /// match the tabulated law to table accuracy, not bit-for-bit with any
  /// closed form (see TabulatedDistribution).
  double sample(util::Rng& rng) const noexcept {
    return inverse_survival(rng.uniform_pos());
  }

  double mean() const noexcept { return mean_; }
  const std::string& describe() const noexcept { return describe_; }
  std::size_t grid_points() const noexcept { return log_x_.size(); }

 private:
  /// Interval count of the direct central inverse grid (see
  /// build_central_table).
  static constexpr std::size_t kCentralIntervals = 1024;

  /// Builds the two inverse interpolants (CDF side for u below the
  /// median, survival side at and past it) from the forward tables.
  void build_inverse_tables();

  /// Builds the direct central sampling grid: quantile values on a
  /// UNIFORM u lattice over [1/N, 1 - 1/N] with monotone Hermite slopes,
  /// resampled from the log-space inverse tables. A central draw is then
  /// one multiply to find its cell and one cubic — no binary search, no
  /// log, no exp — which is what makes table sampling cheaper than the
  /// closed forms it replaces. Tail draws (u outside the lattice,
  /// ~0.2% of uniforms) keep the full-precision log-space path. Skipped
  /// (empty grid) for degenerate tables whose quantiles are not finite
  /// and strictly increasing on the lattice.
  void build_central_table();

  /// Hermite evaluation on the central grid; @p u must lie in
  /// [central_lo_, central_hi_].
  double central_inverse(double u) const noexcept;

  /// Inverse lookup on the CDF side: log x such that log F(x) = lf.
  double x_from_log_cdf(double lf) const noexcept;

  /// Inverse lookup on the survival side: log x such that log S(x) = ls.
  double x_from_log_survival(double ls) const noexcept;

  /// Monotone-cubic evaluation of table @p y at log-abscissa @p lx,
  /// linearly extrapolating below the grid and, when @p saturate_above,
  /// clamping to the last knot above it (otherwise extending the end
  /// slope).
  double eval(const std::vector<double>& y, const std::vector<double>& slope,
              double lx, bool saturate_above) const noexcept;

  double mean_ = 0.0;
  std::string describe_;
  std::vector<double> log_x_;   ///< log-spaced abscissae (log x)
  std::vector<double> log_f_;   ///< log CDF, floored at the underflow edge
  std::vector<double> log_s_;   ///< log survival, floored likewise
  std::vector<double> log_m_;   ///< log partial first moment
  std::vector<double> slope_f_, slope_s_, slope_m_;  ///< monotone slopes

  /// Inverse tables: strictly monotone (log prob, log x) knot pairs
  /// extracted from the forward grid, with Fritsch-Carlson slopes for the
  /// non-uniform spacing. The CDF side ascends in log F; the survival
  /// side ascends in log S (deep tail first).
  std::vector<double> inv_f_z_, inv_f_x_, inv_f_m_;
  std::vector<double> inv_s_z_, inv_s_x_, inv_s_m_;

  /// Direct central inverse: quantile values (linear scale) on a uniform
  /// u grid, the O(1) lane sample() rides for ~99.8% of draws.
  std::vector<double> central_x_, central_m_;
  double central_lo_ = 0.0, central_hi_ = 0.0, central_step_ = 0.0;
  double central_inv_step_ = 0.0;
};

/// FailureDistribution view over a shared TabulatedLaw scaled to an
/// arbitrary mean (the table is closed under time scaling, like
/// ScaledTabulatedPrimitive on the model side). Its sample() is the O(1)
/// inverse-CDF fast lane for the simulator: one uniform per draw through
/// the tables, no per-draw transcendental inversion or Box-Muller pair.
///
/// Opt-in by design: sampled *values* agree with the law only to table
/// accuracy (docs/MODELS.md), so the default simulation paths keep the
/// closed-form samplers and their bit-pinned draw streams; callers choose
/// the table lane explicitly (FailureLaw::sampling_distribution).
class TabulatedDistribution final : public FailureDistribution {
 public:
  /// The law of scale * T for the tabulated T. @p table must be non-null;
  /// @p scale must be positive and finite.
  TabulatedDistribution(std::shared_ptr<const TabulatedLaw> table,
                        double scale);

  double cdf(double t) const override { return table_->cdf(t / scale_); }
  double survival(double t) const override {
    return table_->survival(t / scale_);
  }
  double mean() const override { return scale_ * table_->mean(); }
  double truncated_mean(double t) const override {
    return scale_ * table_->truncated_mean(t / scale_);
  }
  /// One uniform_pos per draw, survival convention (see
  /// TabulatedLaw::sample).
  double sample(util::Rng& rng) const override {
    return scale_ * table_->sample(rng);
  }
  std::string describe() const override;

 private:
  std::shared_ptr<const TabulatedLaw> table_;
  double scale_;
};

}  // namespace mlck::math
