#include "dsp/resample.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/workspace.h"

namespace wearlock::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

double Sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

}  // namespace

std::vector<double> DelayInteger(const std::vector<double>& x,
                                 std::size_t delay_samples) {
  std::vector<double> y(x.size() + delay_samples, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) y[i + delay_samples] = x[i];
  return y;
}

std::vector<double> DelayFractional(const std::vector<double>& x,
                                    double delay_samples, std::size_t taps) {
  if (delay_samples < 0.0) {
    throw std::invalid_argument("DelayFractional: negative delay");
  }
  if (taps == 0 || taps % 2 == 0) {
    throw std::invalid_argument("DelayFractional: taps must be odd and nonzero");
  }
  const std::size_t whole = static_cast<std::size_t>(delay_samples);
  const double frac = delay_samples - static_cast<double>(whole);
  if (frac < 1e-12) return DelayInteger(x, whole);

  // Windowed-sinc interpolation of the fractional part. Taps and the
  // shifted copy live in this thread's workspace: channel simulation
  // delays every path of every frame, so steady state reuses them.
  Workspace& ws = Workspace::PerThread();
  const std::size_t half = taps / 2;
  RealVec& h = ws.RealBuf(RSlot::kResampleTaps, taps);
  double norm = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double n = static_cast<double>(i) - static_cast<double>(half) - frac;
    // Hann window centred on the (fractional) delay.
    const double w =
        0.5 - 0.5 * std::cos(2.0 * kPi * (static_cast<double>(i) + 0.5) /
                             static_cast<double>(taps));
    h[i] = Sinc(n) * w;
    norm += h[i];
  }
  // Normalize DC gain to 1 so delays don't change signal level.
  if (std::abs(norm) > 1e-12) {
    for (double& v : h) v /= norm;
  }

  RealVec& frac_delayed = ws.RealZeroed(RSlot::kResampleShift, x.size() + taps - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Exact zero-skip (see Convolve): guard intervals and lead-in
    // silence are long runs of +0.0 whose products are additive no-ops.
    if (x[i] == 0.0) continue;
    for (std::size_t j = 0; j < taps; ++j) frac_delayed[i + j] += x[i] * h[j];
  }
  // The filter centre sits `half` samples in; compensate so total delay is
  // exactly whole + frac.
  std::vector<double> y(x.size() + whole + 1, 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const std::size_t src = i + half;
    const long long shifted = static_cast<long long>(src) - static_cast<long long>(whole);
    if (shifted >= 0 && static_cast<std::size_t>(shifted) < frac_delayed.size()) {
      y[i] = frac_delayed[static_cast<std::size_t>(shifted)];
    }
  }
  return y;
}

std::vector<double> WarpTimeSinc(const std::vector<double>& x, double rate,
                                 std::size_t taps) {
  if (rate <= 0.0) throw std::invalid_argument("WarpTimeSinc: rate <= 0");
  if (taps == 0 || taps % 2 == 0) {
    throw std::invalid_argument("WarpTimeSinc: taps must be odd and nonzero");
  }
  if (x.empty()) return {};
  const std::size_t out_len =
      static_cast<std::size_t>(static_cast<double>(x.size()) / rate);
  std::vector<double> out(out_len, 0.0);
  const long long half = static_cast<long long>(taps / 2);
  const long long n = static_cast<long long>(x.size());
  for (std::size_t i = 0; i < out_len; ++i) {
    const double pos = static_cast<double>(i) * rate;
    const long long centre = static_cast<long long>(std::floor(pos));
    double acc = 0.0;
    double norm = 0.0;
    for (long long k = centre - half; k <= centre + half; ++k) {
      const double d = pos - static_cast<double>(k);
      // Hann window centred on the (fractional) sample position.
      const double w =
          0.5 + 0.5 * std::cos(kPi * d / (static_cast<double>(half) + 1.0));
      const double h = Sinc(d) * w;
      norm += h;
      if (k >= 0 && k < n) acc += x[static_cast<std::size_t>(k)] * h;
    }
    // Normalize the truncated kernel's DC gain so warps don't change
    // signal level.
    out[i] = std::abs(norm) > 1e-12 ? acc / norm : 0.0;
  }
  return out;
}

}  // namespace wearlock::dsp
