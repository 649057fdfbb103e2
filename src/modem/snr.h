// Pilot-based SNR estimation (paper Eq. 3) and Eb/N0 conversion.
//
//   PSNR = (E_{k in P}[X X*] - E_{k in N}[X X*]) / E_{k in N}[X X*]
//
// where P is the pilot set and N the null set of the sub-channel plan.
// The estimate is computed post-FFT, pre-equalization, so it reflects the
// carrier-to-noise ratio actually seen on the wire, and converts to Eb/N0
// via Eb/N0 = C/N * B/R.
#pragma once

#include <span>

#include "dsp/fft.h"
#include "modem/constellation.h"
#include "modem/frame.h"

namespace wearlock::modem {

/// Linear PSNR from one symbol spectrum (clamped at 0 if pilots are
/// below the noise floor).
double PilotSnrLinear(const FrameSpec& spec, const dsp::ComplexVec& spectrum);

/// PSNR in dB (returns -inf-ish small value for zero linear PSNR).
double PilotSnrDb(const FrameSpec& spec, const dsp::ComplexVec& spectrum);

/// Eb/N0 (dB) implied by a measured carrier SNR for a given modulation
/// under this frame spec: Eb/N0 = SNR + 10*log10(B/R) with B the plan's
/// occupied bandwidth and R the raw data rate of the modulation.
double EbN0Db(const FrameSpec& spec, Modulation m, double snr_db);

/// Per-bin noise power (linear, |X(k)|^2 averaged over the FFT-size
/// windows of an ambient recording) - feeds SelectSubchannels. Window
/// FFTs run through the cached plan and per-thread workspace, so no
/// per-window spectra are materialized.
/// @throws std::invalid_argument if the recording is shorter than one
/// FFT.
std::vector<double> NoisePowerFromAmbient(const FrameSpec& spec,
                                          std::span<const double> ambient);

}  // namespace wearlock::modem
