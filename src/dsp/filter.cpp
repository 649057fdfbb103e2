#include "dsp/filter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "dsp/simd.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {
namespace {
constexpr double kPi = std::numbers::pi;

void CheckFreq(double f_hz, double fs_hz) {
  if (fs_hz <= 0.0 || f_hz <= 0.0 || f_hz >= fs_hz / 2.0) {
    throw std::invalid_argument("filter: frequency must be in (0, fs/2)");
  }
}
}  // namespace

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::LowPass(double cutoff_hz, double sample_rate_hz, double q) {
  CheckFreq(cutoff_hz, sample_rate_hz);
  const double w0 = 2.0 * kPi * cutoff_hz / sample_rate_hz;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return Biquad((1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0,
                -2.0 * cw / a0, (1.0 - alpha) / a0);
}

Biquad Biquad::HighPass(double cutoff_hz, double sample_rate_hz, double q) {
  CheckFreq(cutoff_hz, sample_rate_hz);
  const double w0 = 2.0 * kPi * cutoff_hz / sample_rate_hz;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return Biquad((1.0 + cw) / 2.0 / a0, -(1.0 + cw) / a0, (1.0 + cw) / 2.0 / a0,
                -2.0 * cw / a0, (1.0 - alpha) / a0);
}

double Biquad::Process(double x) {
  const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = x;
  y2_ = y1_;
  y1_ = y;
  return y;
}

void Biquad::ProcessBlock(std::span<double> x) {
  for (double& v : x) v = Process(v);
}

BiquadCascade::BiquadCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)) {}

BiquadCascade BiquadCascade::ButterworthLowPass(double cutoff_hz,
                                                double sample_rate_hz,
                                                std::size_t n_sections) {
  if (n_sections == 0) {
    throw std::invalid_argument("ButterworthLowPass: zero sections");
  }
  std::vector<Biquad> sections;
  sections.reserve(n_sections);
  const std::size_t order = 2 * n_sections;
  for (std::size_t k = 0; k < n_sections; ++k) {
    // Standard Butterworth pole-pair Q for a 2N-order cascade.
    const double theta =
        kPi * (2.0 * static_cast<double>(k) + 1.0) / (2.0 * static_cast<double>(order));
    const double q = 1.0 / (2.0 * std::cos(theta));
    sections.push_back(Biquad::LowPass(cutoff_hz, sample_rate_hz, q));
  }
  return BiquadCascade(std::move(sections));
}

double BiquadCascade::Process(double x) {
  for (Biquad& s : sections_) x = s.Process(x);
  return x;
}

void BiquadCascade::ProcessBlock(std::span<double> x) {
  for (double& v : x) v = Process(v);
}

namespace {

// Below these sizes the direct form runs; above them the O(n log n)
// transform path does. Moving either threshold changes which path a
// call takes, and so its rounding. The speaker's ringing tail is 663
// taps, so its frames split between the paths: per 256 fleet sessions,
// 219 of 477 `SpeakerModel::Emit` calls convolve 1 664 samples in the
// direct form and 258 convolve 2 048 or 2 432 through the transform.
// The impairment layer's reverb convolves whole captures, far longer
// than 2 048 samples, against its tail, so it takes the transform
// unless the tail is under 64 taps.
constexpr std::size_t kFftKernelMin = 64;
constexpr std::size_t kFftSignalMin = 2048;

// lint: hot-path
std::vector<double> ConvolveFft(std::vector<double> x,
                                const std::vector<double>& h,
                                SpectrumCache* kernel_spectra) {
  const std::size_t out_len = x.size() + h.size() - 1;
  const std::size_t n = NextPowerOfTwo(out_len);
  const auto plan = PlanCache::Shared().Get(n);
  Workspace& ws = Workspace::PerThread();
  ComplexVec& fx = ws.ComplexZeroed(CSlot::kConvX, n);
  for (std::size_t i = 0; i < x.size(); ++i) fx[i] = Complex(x[i], 0.0);
  plan->Forward(fx.data());
  // The cache builds h's spectrum exactly as the per-call branch does:
  // h zero-padded to n, then the same plan's forward transform.
  std::span<const Complex> fh;
  if (kernel_spectra) {
    fh = kernel_spectra->Get(h, *plan);
  } else {
    ComplexVec& own = ws.ComplexZeroed(CSlot::kConvH, n);
    for (std::size_t i = 0; i < h.size(); ++i) own[i] = Complex(h[i], 0.0);
    plan->Forward(own.data());
    fh = own;
  }
  for (std::size_t i = 0; i < n; ++i) fx[i] *= fh[i];
  plan->Inverse(fx.data());
  x.resize(out_len);  // NOLINT(hot-path-alloc): the result, in x's buffer
  for (std::size_t k = 0; k < out_len; ++k) x[k] = fx[k].real();
  return x;
}

}  // namespace

std::vector<double> Convolve(std::vector<double> x,
                             const std::vector<double>& h,
                             SpectrumCache* kernel_spectra) {
  if (x.empty() || h.empty()) return {};
  if (h.size() >= kFftKernelMin && x.size() >= kFftSignalMin) {
    return ConvolveFft(std::move(x), h, kernel_spectra);
  }
  // Direct form, output-stationary: y[k] sums x[i] * h[k - i] in
  // ascending i from +0.0, as the reversed kernel against the input
  // zero-padded by |h| - 1 on each side. That is the order in which
  // adding each input's products to every output it reaches would
  // accumulate them. A zero input's products are additive no-ops on an
  // accumulator that starts at +0.0 (it can never become -0.0), provided
  // the kernel is finite (0 * inf is NaN); every kernel in src/ is. So
  // the padding and the frames' guard and lead-in silence change no bit:
  // an output whose whole window is zero stays +0.0 without being
  // computed, and the taps that read only zeros are skipped.
  const std::size_t taps = h.size();
  const std::size_t pad = taps - 1;
  Workspace& ws = Workspace::PerThread();
  RealVec& hr = ws.RealBuf(RSlot::kConvTaps, taps);
  std::reverse_copy(h.begin(), h.end(), hr.begin());
  RealVec& xp = ws.RealZeroed(RSlot::kConvShift, x.size() + 2 * pad);
  std::copy(x.begin(), x.end(), xp.begin() + static_cast<std::ptrdiff_t>(pad));

  // The input's nonzero stretches (padded positions), split at runs of
  // at least 16 zeros; past the last slot, stretches merge (skipping
  // fewer zeros, still exact).
  constexpr std::size_t kGap = 16;
  struct Stretch {
    std::size_t begin, end;
  };
  std::array<Stretch, 32> stretches;
  std::size_t count = 0;
  for (std::size_t i = pad, end = pad + x.size(); i < end;) {
    while (i < end && xp[i] == 0.0) ++i;
    if (i == end) break;
    const std::size_t begin = i;
    std::size_t zeros = 0;
    for (; i < end && zeros < kGap; ++i) zeros = xp[i] == 0.0 ? zeros + 1 : 0;
    if (count == stretches.size()) {
      stretches[count - 1].end = i - zeros;
    } else {
      stretches[count++] = {begin, i - zeros};
    }
  }
  // The output overwrites the input, which now lives in xp.
  std::vector<double>& y = x;
  y.assign(x.size() + pad, 0.0);

  const double* hk = hr.data();
  std::size_t first = 0;  // first stretch ending after the window start
  // Calls run(lo, hi) for the tap ranges of `width` outputs from k: tap j
  // reads xp[k + j, k + j + width), so it counts only where that slice
  // meets a stretch.
  const auto for_each_tap_range = [&](std::size_t k, std::size_t width,
                                      const auto& run) {
    const std::size_t reach = k + width - 1;  // last input tap 0 reads
    for (std::size_t s = first; s < count && stretches[s].begin < reach + taps;
         ++s) {
      run(stretches[s].begin > reach ? stretches[s].begin - reach : 0,
          std::min(taps, stretches[s].end - k));
    }
  };
  for (std::size_t k = 0; k < y.size();) {  // window xp[k, k + taps)
    while (first < count && stretches[first].end <= k) ++first;
    if (first == count) break;
    if (stretches[first].begin >= k + taps) {  // silent window: jump to
      k = stretches[first].begin - taps + 1;   // the first live one
      continue;
    }
    const double* w = xp.data() + k;
    if (k + 16 <= y.size()) {
      // Sixteen outputs, one accumulator lane each.
      F64x2 a0 = {}, a1 = {}, a2 = {}, a3 = {}, a4 = {}, a5 = {}, a6 = {},
            a7 = {};
      for_each_tap_range(k, 16, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          const double* wj = w + j;
          a0 += Load2(wj) * hk[j];
          a1 += Load2(wj + 2) * hk[j];
          a2 += Load2(wj + 4) * hk[j];
          a3 += Load2(wj + 6) * hk[j];
          a4 += Load2(wj + 8) * hk[j];
          a5 += Load2(wj + 10) * hk[j];
          a6 += Load2(wj + 12) * hk[j];
          a7 += Load2(wj + 14) * hk[j];
        }
      });
      double* out = y.data() + k;
      Store2(out, a0);
      Store2(out + 2, a1);
      Store2(out + 4, a2);
      Store2(out + 6, a3);
      Store2(out + 8, a4);
      Store2(out + 10, a5);
      Store2(out + 12, a6);
      Store2(out + 14, a7);
      k += 16;
    } else {
      double a = 0.0;
      for_each_tap_range(k, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) a += w[j] * hk[j];
      });
      y[k++] = a;
    }
  }
  return x;
}

}  // namespace wearlock::dsp
