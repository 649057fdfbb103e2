// NLOS filtering from the preamble delay profile (paper §III-7 "NLOS
// filtering").
//
// The cross-correlation of the received RTS preamble against the known
// chirp approximates the channel's delay profile A(t_n). Body blocking
// suppresses the direct path and spreads energy into late reflections,
// which shows up as a large RMS delay spread:
//
//   tau_hat = sum(t_n A(t_n)) / sum(A(t_n))
//   tau_rms = sqrt( sum((t_n - tau_hat)^2 A(t_n)) / sum(A(t_n)) )
//
// tau_rms > tau* => assume severe body blocking and abort (or relax the
// BER requirement, as the case study does).
#pragma once

#include <cstddef>
#include <vector>

namespace wearlock::modem {

struct DelayProfile {
  /// Power delay profile samples A(t_n) (non-negative).
  std::vector<double> a;
  /// Time step between profile samples (seconds) = 1/Fs.
  double dt_s = 0.0;
  /// Mean excess delay tau_hat (seconds).
  double mean_delay_s = 0.0;
  /// RMS delay spread tau_rms (seconds).
  double rms_delay_s = 0.0;
};

/// Build the delay profile from preamble correlation scores. The profile
/// window spans [peak - pre, peak + post] (clamped to valid indices);
/// scores are rectified and squared into powers, and values below
/// `floor_fraction` of the peak power are zeroed - the floor must sit
/// above the squared correlation-noise level of loud rooms or ambient
/// noise masquerades as delay spread. @throws std::invalid_argument for empty scores.
DelayProfile ComputeDelayProfile(const std::vector<double>& corr_scores,
                                 std::size_t peak_index, double sample_rate_hz,
                                 std::size_t pre = 64, std::size_t post = 384,
                                 double floor_fraction = 0.08);

/// tau* threshold on the RMS delay spread (seconds). LOS indoor paths
/// measure well under 1 ms; the body-blocked profile spreads to several
/// ms.
inline constexpr double kRmsDelayThresholdS = 0.0008;

/// True if the profile indicates severe body blocking (tau_rms > tau*).
bool IsNlos(const DelayProfile& profile);

}  // namespace wearlock::modem
