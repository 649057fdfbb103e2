#include "modem/equalizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft_plan.h"
#include "dsp/workspace.h"

namespace wearlock::modem {

ChannelEstimate::ChannelEstimate(std::size_t first_bin, dsp::ComplexVec response)
    : first_bin_(first_bin), response_(std::move(response)) {}

ChannelEstimate::ChannelEstimate(const ChannelView& view)
    : first_bin_(view.first_bin),
      response_(view.response.begin(), view.response.end()) {}

ChannelEstimate ChannelEstimate::Average(
    const std::vector<ChannelEstimate>& estimates) {
  if (estimates.empty()) return ChannelEstimate();
  dsp::ComplexVec acc(estimates.front().response_.size(), dsp::Complex(0.0, 0.0));
  for (const ChannelEstimate& e : estimates) {
    if (e.first_bin_ != estimates.front().first_bin_ ||
        e.response_.size() != acc.size()) {
      throw std::invalid_argument("ChannelEstimate::Average: span mismatch");
    }
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += e.response_[i];
  }
  for (auto& c : acc) c /= static_cast<double>(estimates.size());
  return ChannelEstimate(estimates.front().first_bin_, std::move(acc));
}

PilotGeometry::PilotGeometry(const FrameSpec& spec)
    : pilots_(spec.plan.pilots) {
  std::sort(pilots_.begin(), pilots_.end());
  values_.reserve(pilots_.size());
  for (std::size_t p : pilots_) values_.push_back(PilotValue(p));
  if (pilots_.size() < 2) return;
  spacing_ = pilots_[1] - pilots_[0];
  for (std::size_t i = 1; i < pilots_.size(); ++i) {
    if (pilots_[i] - pilots_[i - 1] != spacing_) return;
  }
  uniform_ = true;
  if (dsp::IsPowerOfTwo(count())) {
    fwd_plan_ = dsp::PlanCache::Shared().Get(count());
  }
  if (dsp::IsPowerOfTwo(dense_len())) {
    inv_plan_ = dsp::PlanCache::Shared().Get(dense_len());
  }
}

// lint: hot-path
ChannelView EstimateChannelInto(const PilotGeometry& geometry,
                                const dsp::ComplexVec& spectrum,
                                dsp::Workspace& ws) {
  if (geometry.count() < 2) {
    throw std::invalid_argument("EstimateChannelInto: need >= 2 pilots");
  }
  if (!geometry.uniform()) {
    throw std::invalid_argument(
        "EstimateChannelInto: pilots not equally spaced");
  }
  const std::size_t m = geometry.count();
  // Raw estimates at pilot bins: H(p) = z(p) / pilot value (unit power).
  dsp::ComplexVec& h_pilots = ws.ComplexBuf(dsp::CSlot::kEqPilots, m);
  for (std::size_t i = 0; i < m; ++i) {
    h_pilots[i] = spectrum[geometry.pilot(i)] / geometry.pilot_value(i);
  }
  // Residual bulk delay rotates phase linearly across frequency; with a
  // pilot spacing of several bins the rotation between pilots can get near
  // pi, which aliases through the FFT interpolation. Estimate the slope
  // (phase advance per pilot), derotate, interpolate the now slowly
  // varying response, and re-apply the slope on the dense grid.
  dsp::Complex slope_acc(0.0, 0.0);
  for (std::size_t i = 1; i < m; ++i) {
    slope_acc += h_pilots[i] * std::conj(h_pilots[i - 1]);
  }
  const double slope = std::arg(slope_acc);  // radians per pilot spacing
  dsp::ComplexVec& derotated = ws.ComplexBuf(dsp::CSlot::kEqDerot, m);
  for (std::size_t i = 0; i < m; ++i) {
    derotated[i] =
        h_pilots[i] * std::polar(1.0, -slope * static_cast<double>(i));
  }
  // FFT interpolation expands the comb by the pilot spacing, giving an
  // estimate at every bin from the first pilot onward.
  dsp::ComplexVec& dense = dsp::FftInterpolateInto(
      derotated, geometry.dense_len(), ws, geometry.fwd_plan(),
      geometry.inv_plan());
  const double spacing = static_cast<double>(geometry.spacing());
  for (std::size_t j = 0; j < dense.size(); ++j) {
    dense[j] *= std::polar(1.0, slope * static_cast<double>(j) / spacing);
  }
  return ChannelView{geometry.first_bin(), {dense.data(), dense.size()}};
}

// lint: hot-path
std::span<const dsp::Complex> EqualizeInto(const ChannelView& estimate,
                                           const dsp::ComplexVec& spectrum,
                                           std::span<const std::size_t> bins,
                                           dsp::Workspace& ws) {
  constexpr double kEpsilon = 1e-9;
  dsp::ComplexVec& out = ws.ComplexBuf(dsp::CSlot::kEqualized, bins.size());
  for (std::size_t k = 0; k < bins.size(); ++k) {
    dsp::Complex h = estimate.At(bins[k]);
    if (std::abs(h) < kEpsilon) {
      h = dsp::Complex(kEpsilon, 0.0);
    }
    out[k] = spectrum[bins[k]] / h;
  }
  return {out.data(), out.size()};
}

}  // namespace wearlock::modem
