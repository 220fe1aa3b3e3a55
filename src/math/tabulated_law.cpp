#include "math/tabulated_law.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/integrate.h"

namespace mlck::math {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Floor for the stored logs: exp(-745) is the smallest positive double,
/// so a value at the floor reads back as "underflowed to zero".
constexpr double kLogFloor = -745.0;

// Grid policy (see the class comment in tabulated_law.h).
constexpr double kLoFraction = 1e-4;     ///< grid start, fraction of the mean
constexpr int kPointsPerDecade = 64;     ///< log-grid density
constexpr double kTailSurvival = 1e-14;  ///< grid extends until S(x) <= this
/// Hard stop for the tail extension, as a multiple of the mean (a
/// pathological law cannot grow the table without bound).
constexpr double kHiCapMultiple = 1e9;

double floored_log(double v) noexcept {
  if (!(v > 0.0)) return kLogFloor;
  return std::max(std::log(v), kLogFloor);
}

/// Fritsch-Carlson monotone slopes for uniformly spaced data: secant
/// harmonic means in the interior, clamped one-sided estimates at the
/// ends. The resulting cubic Hermite interpolant preserves monotone runs
/// of the data exactly (no overshoot between knots).
std::vector<double> monotone_slopes(const std::vector<double>& y, double h) {
  const std::size_t n = y.size();
  std::vector<double> slope(n, 0.0);
  if (n < 2) return slope;
  std::vector<double> secant(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) secant[i] = (y[i + 1] - y[i]) / h;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double a = secant[i - 1];
    const double b = secant[i];
    slope[i] = (a * b <= 0.0) ? 0.0 : 2.0 * a * b / (a + b);
  }
  const auto end_slope = [](double d0, double d1) {
    double m = 1.5 * d0 - 0.5 * d1;
    if (m * d0 <= 0.0) return 0.0;
    if (std::abs(m) > 3.0 * std::abs(d0)) m = 3.0 * d0;
    return m;
  };
  slope[0] = n > 2 ? end_slope(secant[0], secant[1]) : secant[0];
  slope[n - 1] =
      n > 2 ? end_slope(secant[n - 2], secant[n - 3]) : secant[n - 2];
  return slope;
}

}  // namespace

TabulatedLaw::TabulatedLaw(const FailureDistribution& law) {
  mean_ = law.mean();
  describe_ = law.describe();
  if (!(mean_ > 0.0) || !std::isfinite(mean_)) {
    throw std::invalid_argument("TabulatedLaw: law must have a finite mean");
  }

  const double step = std::log(10.0) / kPointsPerDecade;
  const double lo = kLoFraction * mean_;
  // The grid always covers the shared oracle cap; heavy tails extend it
  // until the remaining mass is negligible at every tolerance in the tree.
  const double cap_start = kDomainCapMultiple * mean_;
  const double hi_stop = kHiCapMultiple * mean_;

  log_x_.push_back(std::log(lo));
  for (;;) {
    const double next = log_x_.back() + step;
    const double x = std::exp(next);
    log_x_.push_back(next);
    if (x >= cap_start && law.survival(x) <= kTailSurvival) break;
    if (x >= hi_stop) break;
  }

  const std::size_t n = log_x_.size();
  log_f_.resize(n);
  log_s_.resize(n);
  log_m_.resize(n);

  // One pass accumulates the partial first moment per segment via
  // integration by parts, switching between the CDF form
  //   dM = b F(b) - a F(a) - integral_a^b F dx
  // and the survival form
  //   dM = a S(a) - b S(b) + integral_a^b S dx
  // at the median so the subtracted terms never catastrophically cancel.
  double moment = 0.0;
  double prev_x = 0.0;
  double prev_f = 0.0;
  double prev_s = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = std::exp(log_x_[i]);
    const double f = law.cdf(x);
    const double s = law.survival(x);
    const double width = x - prev_x;
    if (f <= 0.5) {
      const double tol = std::max(1e-300, 1e-14 * width * std::max(f, prev_f));
      const double area = integrate([&law](double v) { return law.cdf(v); },
                                    prev_x, x, tol);
      moment += x * f - prev_x * prev_f - area;
    } else {
      const double tol = std::max(1e-300, 1e-14 * width * prev_s);
      const double area =
          integrate([&law](double v) { return law.survival(v); }, prev_x, x,
                    tol);
      moment += prev_x * prev_s - x * s + area;
    }
    moment = std::max(moment, 0.0);  // quadrature noise must not go negative
    log_f_[i] = floored_log(f);
    log_s_[i] = floored_log(s);
    log_m_[i] = floored_log(moment);
    prev_x = x;
    prev_f = f;
    prev_s = s;
  }

  slope_f_ = monotone_slopes(log_f_, step);
  slope_s_ = monotone_slopes(log_s_, step);
  slope_m_ = monotone_slopes(log_m_, step);
}

double TabulatedLaw::eval(const std::vector<double>& y,
                          const std::vector<double>& slope, double lx,
                          bool saturate_above) const noexcept {
  const double lo = log_x_.front();
  const double hi = log_x_.back();
  if (lx <= lo) return y.front() + slope.front() * (lx - lo);
  if (lx >= hi) {
    return saturate_above ? y.back() : y.back() + slope.back() * (lx - hi);
  }
  const double step = (hi - lo) / static_cast<double>(log_x_.size() - 1);
  auto i = static_cast<std::size_t>((lx - lo) / step);
  i = std::min(i, log_x_.size() - 2);
  const double t = (lx - log_x_[i]) / step;
  const double h00 = (1.0 + 2.0 * t) * (1.0 - t) * (1.0 - t);
  const double h10 = t * (1.0 - t) * (1.0 - t);
  const double h01 = t * t * (3.0 - 2.0 * t);
  const double h11 = t * t * (t - 1.0);
  return h00 * y[i] + h10 * step * slope[i] + h01 * y[i + 1] +
         h11 * step * slope[i + 1];
}

double TabulatedLaw::cdf(double t) const noexcept {
  if (t <= 0.0) return 0.0;
  const double lf = eval(log_f_, slope_f_, std::log(t), true);
  if (lf <= kLogFloor) return 0.0;
  return std::min(1.0, std::exp(lf));
}

double TabulatedLaw::survival(double t) const noexcept {
  if (t <= 0.0) return 1.0;
  const double ls = eval(log_s_, slope_s_, std::log(t), false);
  if (ls <= kLogFloor) return 0.0;
  return std::min(1.0, std::exp(ls));
}

double TabulatedLaw::truncated_mean(double t) const noexcept {
  if (t <= 0.0) return 0.0;
  const double lx = std::log(t);
  const double lf = eval(log_f_, slope_f_, lx, true);
  // A window with no representable mass: fall back to the uniform limit,
  // the same convention as the exponential closed form at rate -> 0.
  if (lf <= kLogFloor) return 0.5 * t;
  const double lm = eval(log_m_, slope_m_, lx, true);
  return std::min(std::exp(lm - lf), t);
}

double TabulatedLaw::expected_retries(double t) const noexcept {
  if (t <= 0.0) return 0.0;
  const double lx = std::log(t);
  const double lf = eval(log_f_, slope_f_, lx, true);
  if (lf <= kLogFloor) return 0.0;
  const double ls = eval(log_s_, slope_s_, lx, false);
  if (ls <= kLogFloor) return kInf;  // survival underflowed: certain failure
  return std::exp(lf - ls);
}

}  // namespace mlck::math
