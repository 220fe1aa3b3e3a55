#include "verify/integrate.h"

#include <algorithm>
#include <cmath>

namespace mlck::verify {

namespace {

double simpson(double fa, double fm, double fb, double h) {
  return h / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive(const std::function<double(double)>& f, double a, double b,
                double fa, double fm, double fb, double whole, double tol,
                int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(fa, flm, fm, m - a);
  const double right = simpson(fm, frm, fb, b - m);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;  // Richardson correction
  }
  return adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) +
         adaptive(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol) {
  if (!(b > a)) return 0.0;
  const double fa = f(a);
  const double fb = f(b);
  const double m = 0.5 * (a + b);
  const double fm = f(m);
  const double whole = simpson(fa, fm, fb, b - a);
  return adaptive(f, a, b, fa, fm, fb, whole, tol, /*depth=*/48);
}

IntegrationDomain integration_domain(double t, double mean) noexcept {
  IntegrationDomain d;
  if (mean <= 0.0) {
    d.cap = t;
    d.split = t;
    return d;
  }
  d.cap = std::min(t, kDomainCapMultiple * mean);
  d.split = std::min(d.cap, kBulkSplitMultiple * mean);
  return d;
}

}  // namespace mlck::verify
