// Pilot-based channel estimation and one-tap equalization (paper §III-6).
//
// Pilots are equal-spaced, unit-power, and known a-priori. Extracting
// them post-FFT gives H at the pilot bins; an FFT-based interpolation
// expands that comb to every in-band bin, and equalization divides each
// received bin by its estimate: s_hat(k) = z(k) / H(k).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "modem/frame.h"

namespace wearlock::dsp {
class FftPlan;    // dsp/fft_plan.h
class Workspace;  // dsp/workspace.h
}  // namespace wearlock::dsp

namespace wearlock::modem {

/// Non-owning view of a channel estimate whose response lives in a
/// Workspace slot. Valid until the next EstimateChannelInto (or other
/// kInterpPadded owner) call on the same workspace.
struct ChannelView {
  std::size_t first_bin = 0;
  std::span<const dsp::Complex> response;

  /// H(bin). Bins outside the estimated span clamp to the nearest edge
  /// estimate (data bins are kept inside the span by construction); an
  /// empty estimate is the unit channel.
  dsp::Complex At(std::size_t bin) const {
    if (response.empty()) return dsp::Complex(1.0, 0.0);
    if (bin < first_bin) return response.front();
    const std::size_t idx = bin - first_bin;
    if (idx >= response.size()) return response.back();
    return response[idx];
  }
};

/// Owned channel frequency response over the pilot span (the probe's
/// averaged estimate outlives the workspace it was computed in).
class ChannelEstimate {
 public:
  ChannelEstimate() = default;
  ChannelEstimate(std::size_t first_bin, dsp::ComplexVec response);
  /// Copy of a workspace estimate.
  explicit ChannelEstimate(const ChannelView& view);

  /// H(bin), clamped as ChannelView::At.
  dsp::Complex At(std::size_t bin) const {
    return ChannelView{first_bin_, response_}.At(bin);
  }

  /// Elementwise average with another estimate (same span required);
  /// used to combine estimates from repeated probe symbols.
  static ChannelEstimate Average(const std::vector<ChannelEstimate>& estimates);

  std::size_t first_bin() const { return first_bin_; }
  std::size_t last_bin() const { return first_bin_ + response_.size() - 1; }
  bool empty() const { return response_.empty(); }

 private:
  std::size_t first_bin_ = 0;
  dsp::ComplexVec response_;
};

/// Pilot geometry of a FrameSpec, precomputed once so the per-symbol
/// estimator does no sorting, no PilotValue trigonometry, and no plan
/// lookups. Construction never throws on a degenerate pilot set;
/// EstimateChannelInto raises the errors at call time instead.
class PilotGeometry {
 public:
  explicit PilotGeometry(const FrameSpec& spec);

  std::size_t count() const { return pilots_.size(); }
  std::size_t spacing() const { return spacing_; }
  std::size_t first_bin() const { return pilots_.empty() ? 0 : pilots_.front(); }
  std::size_t dense_len() const { return count() * spacing_; }
  bool uniform() const { return uniform_; }
  std::size_t pilot(std::size_t i) const { return pilots_[i]; }
  const dsp::Complex& pilot_value(std::size_t i) const { return values_[i]; }
  /// Cached interpolation plans, forward over count() and inverse over
  /// dense_len() (null for a size that is not a power of two; the
  /// interpolator then transforms that size with its direct DFT).
  const dsp::FftPlan* fwd_plan() const { return fwd_plan_.get(); }
  const dsp::FftPlan* inv_plan() const { return inv_plan_.get(); }

 private:
  std::vector<std::size_t> pilots_;  ///< ascending
  dsp::ComplexVec values_;
  std::size_t spacing_ = 0;
  bool uniform_ = false;
  std::shared_ptr<const dsp::FftPlan> fwd_plan_;
  std::shared_ptr<const dsp::FftPlan> inv_plan_;
};

/// Estimate the channel from one received symbol spectrum using the
/// geometry's pilot set, into ws scratch (slots kEqPilots, kEqDerot, and
/// the interpolator's).
/// @throws std::invalid_argument with fewer than two pilots or pilots
/// that are not equally spaced.
ChannelView EstimateChannelInto(const PilotGeometry& geometry,
                                const dsp::ComplexVec& spectrum,
                                dsp::Workspace& ws);

/// Equalize the listed bins of a spectrum: s_hat(k) = z(k)/H(k), in the
/// same order as `bins`, into ws slot kEqualized (valid until the next
/// EqualizeInto on the workspace). Bins where |H| is tiny (deep fade)
/// pass through scaled by 1/epsilon to avoid blowups.
std::span<const dsp::Complex> EqualizeInto(const ChannelView& estimate,
                                           const dsp::ComplexVec& spectrum,
                                           std::span<const std::size_t> bins,
                                           dsp::Workspace& ws);

}  // namespace wearlock::modem
