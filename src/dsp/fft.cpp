#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "dsp/fft_plan.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

// O(n^2) DFT for the small, possibly non-power-of-two sequences that the
// pilot interpolator can produce. n is at most a few dozen there.
ComplexVec Dft(const ComplexVec& x, bool inverse) {
  const std::size_t n = x.size();
  ComplexVec out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * kPi * static_cast<double>(k * j) /
                         static_cast<double>(n);
      acc += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

// In-place forward or inverse transform of any size: powers of two run
// `plan` (resolved through the shared cache when null), other sizes the
// direct DFT. `x` may be a workspace slot, so it keeps its buffer.
void TransformAnySize(ComplexVec& x, bool inverse, const FftPlan* plan) {
  if (!IsPowerOfTwo(x.size())) {
    const ComplexVec out = Dft(x, inverse);
    std::copy(out.begin(), out.end(), x.begin());
    return;
  }
  std::shared_ptr<const FftPlan> cached;
  if (plan == nullptr) {
    cached = PlanCache::Shared().Get(x.size());
    plan = cached.get();
  }
  if (inverse) {
    plan->Inverse(x.data());
  } else {
    plan->Forward(x.data());
  }
}

void RequirePowerOfTwo(std::size_t n) {
  if (!IsPowerOfTwo(n)) {
    throw std::invalid_argument("Fft: size must be a power of two, got " +
                                std::to_string(n));
  }
}

}  // namespace

std::size_t NextPowerOfTwo(std::size_t n) {
  constexpr std::size_t kLargest = std::size_t{1}
                                   << (std::numeric_limits<std::size_t>::digits - 1);
  if (n > kLargest) {
    throw std::invalid_argument(
        "NextPowerOfTwo: no representable power of two >= " +
        std::to_string(n));
  }
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void Fft(ComplexVec& x) {
  RequirePowerOfTwo(x.size());
  PlanCache::Shared().Get(x.size())->Forward(x.data());
}

void Ifft(ComplexVec& x) {
  RequirePowerOfTwo(x.size());
  PlanCache::Shared().Get(x.size())->Inverse(x.data());
}

ComplexVec FftReal(const RealVec& x) {
  ComplexVec c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Complex(x[i], 0.0);
  Fft(c);
  return c;
}

ComplexVec& FftInterpolateInto(const ComplexVec& points,
                               std::size_t out_len, Workspace& ws,
                               const FftPlan* fwd_plan,
                               const FftPlan* inv_plan) {
  const std::size_t m = points.size();
  if (m == 0) throw std::invalid_argument("FftInterpolateInto: empty input");
  ComplexVec& spec = ws.ComplexBuf(CSlot::kInterpSpec, m);
  std::copy(points.begin(), points.end(), spec.begin());
  TransformAnySize(spec, /*inverse=*/false, fwd_plan);
  ComplexVec& padded = ws.ComplexZeroed(CSlot::kInterpPadded, out_len);
  if (out_len >= m) {
    // Zero-pad in the middle of the spectrum, splitting the
    // Nyquist-adjacent region so low and high frequencies keep their
    // places.
    const std::size_t half = (m + 1) / 2;  // low-frequency half (incl. DC)
    for (std::size_t i = 0; i < half; ++i) padded[i] = spec[i];
    for (std::size_t i = half; i < m; ++i) padded[out_len - m + i] = spec[i];
  } else {
    // Degenerate request: band-limited "interpolation" to fewer points is
    // resampling; keep the lowest out_len bins of the spectrum.
    std::copy(spec.begin(), spec.begin() + static_cast<long>(out_len),
              padded.begin());
  }
  TransformAnySize(padded, /*inverse=*/true, inv_plan);
  const double scale = static_cast<double>(out_len) / static_cast<double>(m);
  for (Complex& c : padded) c *= scale;
  return padded;
}

}  // namespace wearlock::dsp
