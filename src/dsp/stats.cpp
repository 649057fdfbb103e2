#include "dsp/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wearlock::dsp {

Summary Summarize(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("Summarize: empty input");
  Summary s;
  s.count = xs.size();
  double sum = 0.0;
  s.min = xs[0];
  s.max = xs[0];
  for (double v : xs) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double v : xs) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  s.median = (n % 2 == 1) ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return s;
}

LinearFit FitLinear(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("FitLinear: size mismatch");
  if (x.size() < 2) throw std::invalid_argument("FitLinear: need >= 2 points");
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-30) {
    throw std::invalid_argument("FitLinear: degenerate x values");
  }
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot > 1e-30 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace wearlock::dsp
