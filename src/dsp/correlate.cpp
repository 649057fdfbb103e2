#include "dsp/correlate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

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

/// The plan every correlation of x against y runs at.
std::shared_ptr<const FftPlan> CorrelationPlan(std::span<const double> x,
                                               std::span<const double> y) {
  return PlanCache::Shared().Get(NextPowerOfTwo(x.size() + y.size()));
}

/// Forward transform of `y` zero-padded into `out`, which holds
/// plan.size() zeros on entry.
void TemplateSpectrum(std::span<const double> y, const FftPlan& plan,
                      Complex* out) {
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = Complex(y[i], 0.0);
  plan.Forward(out);
}

/// The one correlation body: x zero-padded to the plan size and
/// transformed, times the conjugate template spectrum `fy`, transformed
/// back; the valid lags land in `out`.
// lint: hot-path
void CorrelateWithSpectrum(std::span<const double> x,
                           std::span<const Complex> fy, const FftPlan& plan,
                           Workspace& ws, std::span<double> out) {
  const std::size_t n = plan.size();
  ComplexVec& fx = ws.ComplexZeroed(CSlot::kCorrX, n);
  for (std::size_t i = 0; i < x.size(); ++i) fx[i] = Complex(x[i], 0.0);
  plan.Forward(fx.data());
  for (std::size_t i = 0; i < n; ++i) fx[i] *= std::conj(fy[i]);
  plan.Inverse(fx.data());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = fx[k].real();
}

/// Divides each lag's raw correlation by ||x_window|| * ||y||;
/// zero-energy windows score 0.
void Normalize(std::span<const double> x, std::span<const double> y,
               std::span<double> out) {
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

}  // namespace

// lint: hot-path
void CrossCorrelateFftInto(std::span<const double> x,
                           std::span<const double> y, Workspace& ws,
                           std::span<double> out) {
  CheckArgs(x, y);
  CheckOut(x, y, out);
  const auto plan = CorrelationPlan(x, y);
  ComplexVec& fy = ws.ComplexZeroed(CSlot::kCorrY, plan->size());
  TemplateSpectrum(y, *plan, fy.data());
  CorrelateWithSpectrum(x, fy, *plan, ws, out);
}

// lint: hot-path
void NormalizedCrossCorrelateCachedInto(std::span<const double> x,
                                        std::span<const double> y,
                                        Workspace& ws, std::span<double> out) {
  CheckArgs(x, y);
  CheckOut(x, y, out);
  const auto plan = CorrelationPlan(x, y);
  CorrelateWithSpectrum(x, SpectrumCache::Shared().Get(y, *plan), *plan, ws,
                        out);
  Normalize(x, y, out);
}

std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             std::span<const double> y) {
  CheckArgs(x, y);
  std::vector<double> r(x.size() - y.size() + 1);
  CrossCorrelateFftInto(x, y, Workspace::PerThread(), r);
  Normalize(x, y, r);
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

std::span<const Complex> SpectrumCache::Get(std::span<const double> samples,
                                            const FftPlan& plan) {
  // Find or build under one lock, as PlanCache::Get does: each key is
  // built (and counted as a miss) exactly once, with the plan the
  // caller already fetched.
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->spectrum.size() == plan.size() &&
        std::equal(samples.begin(), samples.end(), entry->samples.begin(),
                   entry->samples.end(), same_bits)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return entry->spectrum;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->samples.assign(samples.begin(), samples.end());
  entry->spectrum.assign(plan.size(), Complex(0.0, 0.0));
  TemplateSpectrum(samples, plan, entry->spectrum.data());
  entries_.push_back(std::move(entry));
  misses_.fetch_add(1, std::memory_order_relaxed);
  return entries_.back()->spectrum;
}

SpectrumCache& SpectrumCache::Shared() {
  // Leaked on purpose, like PlanCache::Shared: spans into the entries
  // must outlive every worker thread.
  static SpectrumCache* const cache = new SpectrumCache();  // NOLINT(banned-api): intentional leak
  return *cache;
}

}  // namespace wearlock::dsp
