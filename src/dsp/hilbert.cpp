#include "dsp/hilbert.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fft_plan.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {

ComplexVec& PaddedComplex(std::span<const double> x) {
  ComplexVec& spec = Workspace::PerThread().ComplexZeroed(
      CSlot::kFftScratch, NextPowerOfTwo(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) spec[i] = Complex(x[i], 0.0);
  return spec;
}

std::span<const Complex> AnalyticSignal(std::span<const double> x) {
  if (x.empty()) return {};
  ComplexVec& spec = PaddedComplex(x);
  const std::size_t n = spec.size();
  const auto plan = PlanCache::Shared().Get(n);
  plan->Forward(spec.data());
  // Analytic filter: keep DC and Nyquist, double positive freqs, zero
  // negative freqs.
  for (std::size_t k = 1; k < n / 2; ++k) spec[k] *= 2.0;
  for (std::size_t k = n / 2 + 1; k < n; ++k) spec[k] = Complex(0.0, 0.0);
  plan->Inverse(spec.data());
  return {spec.data(), x.size()};
}

RealVec RotatePhase(RealVec x, std::span<const double> theta) {
  if (x.size() != theta.size()) {
    throw std::invalid_argument("RotatePhase: size mismatch");
  }
  const std::span<const Complex> analytic = AnalyticSignal(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = (analytic[i] * std::polar(1.0, theta[i])).real();
  }
  return x;
}

}  // namespace wearlock::dsp
