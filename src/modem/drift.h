// Sync-driven timing-drift tracking (crowded-world hardening).
//
// Two distinct clock errors hit the watch's capture (audio/impairments.h):
//   * accumulated offset - the TX/RX sample-rate offset integrated since
//     the devices last synced clocks slides the whole capture window by
//     whole milliseconds. The preamble correlator localizes the frame to
//     one sample, so (found - expected) / clock_age recovers the SRO to
//     hundredths of a ppm.
//   * ongoing rate error - SRO plus walking-speed Doppler warp the frame
//     itself (~4000 ppm at 1.4 m/s). The RTS probe carries block-pilot
//     symbols that are *identical* on the wire, so the spacing between
//     the first and last pilot body measures the received symbol period
//     directly; sub-sample peak interpolation resolves the warp rate to
//     a few hundred ppm, enough to de-rotate the data constellation.
// CompensateRate inverts the measured warp with the windowed-sinc
// arbitrary-ratio resampler, after which the equalizer is re-estimated
// on the de-warped capture (the protocol re-runs the probe analysis).
#pragma once

#include <cstddef>
#include <span>

#include "audio/signal.h"
#include "modem/frame.h"

namespace wearlock::modem {

/// Rate-search envelope: |warp| beyond this is not searched
/// (walking-speed Doppler tops out near 5 m/s / 343 m/s ~ 15000 ppm;
/// the envelope covers 2 m/s plus SRO headroom).
inline constexpr double kMaxRatePpm = 8000.0;
/// Pilot-spacing correlation below this is too noisy to trust; the
/// estimate reports rate 0 (no compensation) but keeps the shift.
inline constexpr double kMinRateScore = 0.35;

struct DriftEstimate {
  /// Preamble was found; shift_samples and sro_ppm are meaningful.
  bool valid = false;
  /// Found preamble position minus the expected one (positive = the
  /// capture window opened early / content landed late).
  long shift_samples = 0;
  /// SRO implied by the shift over the clock age (audio::kClockAgeS).
  double sro_ppm = 0.0;
  /// Measured time-warp rate of the frame itself, as (rate-1) in ppm;
  /// 0 when the pilot-spacing correlation was below kMinRateScore.
  double rate_ppm = 0.0;
  /// Normalized pilot-spacing correlation backing rate_ppm.
  double rate_score = 0.0;
};

/// Estimate capture-window shift and warp rate from a probe-frame
/// recording. `expected_start` is where the receiver's own clock says
/// the preamble should sit (the scene's lead-in). The rate comes from
/// the span between the first and last of the kProbeSymbols pilots.
/// Pure DSP - no scene or RNG draws.
[[nodiscard]] DriftEstimate EstimateDrift(std::span<const double> recording,
                                          const FrameSpec& spec,
                                          std::size_t expected_start);

/// Undo a measured time warp: resample so content recorded at rate
/// (1 + rate_ppm * 1e-6) plays back at rate 1. Identity when
/// rate_ppm == 0.
[[nodiscard]] audio::Samples CompensateRate(const audio::Samples& recording,
                                            double rate_ppm);

}  // namespace wearlock::modem
