#include "modem/nlos.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wearlock::modem {

DelayProfile ComputeDelayProfile(const std::vector<double>& corr_scores,
                                 std::size_t peak_index, double sample_rate_hz,
                                 std::size_t pre, std::size_t post,
                                 double floor_fraction) {
  if (corr_scores.empty()) {
    throw std::invalid_argument("ComputeDelayProfile: empty scores");
  }
  if (peak_index >= corr_scores.size()) {
    throw std::invalid_argument("ComputeDelayProfile: peak out of range");
  }
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("ComputeDelayProfile: bad sample rate");
  }
  const std::size_t begin = peak_index >= pre ? peak_index - pre : 0;
  const std::size_t end = std::min(corr_scores.size(), peak_index + post + 1);

  DelayProfile profile;
  profile.dt_s = 1.0 / sample_rate_hz;
  profile.a.reserve(end - begin);
  double peak_power = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double p = corr_scores[i] > 0.0 ? corr_scores[i] * corr_scores[i] : 0.0;
    peak_power = std::max(peak_power, p);
    profile.a.push_back(p);
  }
  const double floor = peak_power * floor_fraction;
  for (double& p : profile.a) {
    if (p < floor) p = 0.0;
  }

  double sum_a = 0.0, sum_ta = 0.0;
  for (std::size_t n = 0; n < profile.a.size(); ++n) {
    const double t = static_cast<double>(n) * profile.dt_s;
    sum_a += profile.a[n];
    sum_ta += t * profile.a[n];
  }
  if (sum_a <= 0.0) return profile;  // all-noise window: zero spread
  profile.mean_delay_s = sum_ta / sum_a;
  double sum_var = 0.0;
  for (std::size_t n = 0; n < profile.a.size(); ++n) {
    const double t = static_cast<double>(n) * profile.dt_s;
    sum_var += (t - profile.mean_delay_s) * (t - profile.mean_delay_s) * profile.a[n];
  }
  profile.rms_delay_s = std::sqrt(sum_var / sum_a);
  return profile;
}

bool IsNlos(const DelayProfile& profile) {
  return profile.rms_delay_s > kRmsDelayThresholdS;
}

}  // namespace wearlock::modem
