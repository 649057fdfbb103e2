#include "dsp/correlate.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {
namespace {

void CheckArgs(std::span<const double> x, std::span<const double> y) {
  if (y.empty()) throw std::invalid_argument("CrossCorrelate: empty template");
  if (y.size() > x.size()) {
    throw std::invalid_argument("CrossCorrelate: template longer than signal");
  }
}

void CheckOut(std::span<const double> x, std::span<const double> y,
              std::span<double> out) {
  if (out.size() != x.size() - y.size() + 1) {
    throw std::invalid_argument("CrossCorrelateFftInto: out must have one "
                                "slot per valid lag");
  }
}

}  // namespace

std::vector<double> CrossCorrelate(std::span<const double> x,
                                   std::span<const double> y) {
  CheckArgs(x, y);
  const std::size_t lags = x.size() - y.size() + 1;
  std::vector<double> r(lags, 0.0);
  for (std::size_t k = 0; k < lags; ++k) {
    double acc = 0.0;
    for (std::size_t n = 0; n < y.size(); ++n) acc += x[k + n] * y[n];
    r[k] = acc;
  }
  return r;
}

// lint: hot-path
void CrossCorrelateFftInto(std::span<const double> x,
                           std::span<const double> y, Workspace& ws,
                           std::span<double> out) {
  CheckArgs(x, y);
  CheckOut(x, y, out);
  const std::size_t n = NextPowerOfTwo(x.size() + y.size());
  const auto plan = PlanCache::Shared().Get(n);
  ComplexVec& fx = ws.ComplexZeroed(CSlot::kCorrX, n);
  ComplexVec& fy = ws.ComplexZeroed(CSlot::kCorrY, n);
  for (std::size_t i = 0; i < x.size(); ++i) fx[i] = Complex(x[i], 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) fy[i] = Complex(y[i], 0.0);
  plan->Forward(fx.data());
  plan->Forward(fy.data());
  for (std::size_t i = 0; i < n; ++i) fx[i] *= std::conj(fy[i]);
  plan->Inverse(fx.data());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = fx[k].real();
}

std::vector<double> CrossCorrelateFft(std::span<const double> x,
                                      std::span<const double> y) {
  CheckArgs(x, y);
  std::vector<double> r(x.size() - y.size() + 1);
  CrossCorrelateFftInto(x, y, Workspace::PerThread(), r);
  return r;
}

// lint: hot-path
void NormalizedCrossCorrelateInto(std::span<const double> x,
                                  std::span<const double> y, Workspace& ws,
                                  std::span<double> out) {
  CrossCorrelateFftInto(x, y, ws, out);
  double y_energy = 0.0;
  for (double v : y) y_energy += v * v;
  const double y_norm = std::sqrt(y_energy);
  if (y_norm == 0.0) {
    for (double& v : out) v = 0.0;
    return;
  }
  // Running window energy of x for the denominator.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) win_energy += x[i] * x[i];
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double denom = std::sqrt(std::max(win_energy, 0.0)) * y_norm;
    out[k] = denom > 1e-30 ? out[k] / denom : 0.0;
    if (k + 1 < out.size()) {
      win_energy += x[k + y.size()] * x[k + y.size()] - x[k] * x[k];
    }
  }
}

std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             std::span<const double> y) {
  CheckArgs(x, y);
  std::vector<double> r(x.size() - y.size() + 1);
  NormalizedCrossCorrelateInto(x, y, Workspace::PerThread(), r);
  return r;
}

PeakResult FindPeak(std::span<const double> scores) {
  if (scores.empty()) throw std::invalid_argument("FindPeak: empty input");
  PeakResult best{0, scores[0]};
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > best.score) best = {i, scores[i]};
  }
  return best;
}

}  // namespace wearlock::dsp
