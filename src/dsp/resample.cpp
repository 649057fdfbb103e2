#include "dsp/resample.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/simd.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

double Sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

}  // namespace

std::vector<double> DelayInteger(std::vector<double> x,
                                 std::size_t delay_samples) {
  x.insert(x.begin(), delay_samples, 0.0);
  return x;
}

std::vector<double> DelayFractional(std::vector<double> x,
                                    double delay_samples, std::size_t taps) {
  if (delay_samples < 0.0) {
    throw std::invalid_argument("DelayFractional: negative delay");
  }
  if (taps == 0 || taps % 2 == 0) {
    throw std::invalid_argument("DelayFractional: taps must be odd and nonzero");
  }
  const std::size_t whole = static_cast<std::size_t>(delay_samples);
  const double frac = delay_samples - static_cast<double>(whole);
  if (frac < 1e-12) return DelayInteger(std::move(x), whole);

  // Windowed-sinc interpolation of the fractional part. Taps and the
  // padded input live in this thread's workspace: channel simulation
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

  // Output i is the filtered sample m = i + half - whole (the filter
  // centre sits `half` samples in, so the total delay is exactly
  // whole + frac): the taps reversed against the input zero-padded by
  // taps - 1 on each side, summed in ascending input index from +0.0.
  // That is the order in which adding each input's products to every
  // output it reaches would accumulate them; a zero input's products
  // are additive no-ops on an accumulator that starts at +0.0 (it can
  // never become -0.0), so the padding and the guard-interval and
  // lead-in silence change no bit, and an output whose whole window is
  // zero stays +0.0 without being computed.
  std::reverse(h.begin(), h.end());
  const std::size_t n = x.size();
  const std::size_t pad = taps - 1;
  RealVec& xp = ws.RealZeroed(RSlot::kResampleShift, n + 2 * pad);
  std::copy(x.begin(), x.end(), xp.begin() + static_cast<std::ptrdiff_t>(pad));
  // The output overwrites the input, which now lives in xp.
  std::vector<double>& y = x;
  y.resize(n + whole + 1);
  std::fill(y.begin(), y.end(), 0.0);
  const std::size_t begin = whole > half ? whole - half : 0;
  const std::size_t end = std::min(y.size(), n + pad + whole - half);
  const double* hr = h.data();
  std::size_t live = 0;  // first nonzero input at or after the window start
  for (std::size_t i = begin; i < end;) {
    const std::size_t m = i + half - whole;  // window xp[m, m + taps)
    live = std::max(live, m);
    while (live < xp.size() && xp[live] == 0.0) ++live;
    if (live == xp.size()) break;
    if (live >= m + taps) {  // silent window: jump to the first live one
      i += live - (m + taps) + 1;
      continue;
    }
    const double* w = xp.data() + m;
    if (i + 8 <= end) {
      // Eight outputs, one accumulator lane each.
      F64x2 a0 = {}, a1 = {}, a2 = {}, a3 = {};
      for (std::size_t k = 0; k < taps; ++k) {
        a0 += Load2(w + k) * hr[k];
        a1 += Load2(w + k + 2) * hr[k];
        a2 += Load2(w + k + 4) * hr[k];
        a3 += Load2(w + k + 6) * hr[k];
      }
      Store2(&y[i], a0);
      Store2(&y[i + 2], a1);
      Store2(&y[i + 4], a2);
      Store2(&y[i + 6], a3);
      i += 8;
    } else {
      double a = 0.0;
      for (std::size_t k = 0; k < taps; ++k) a += w[k] * hr[k];
      y[i++] = a;
    }
  }
  return x;
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
