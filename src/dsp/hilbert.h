// Analytic signal (Hilbert transform) helpers.
//
// Used by the channel simulator to inject *phase-domain* impairments:
// multiplying the analytic signal by exp(j*theta(t)) rotates the local
// phase without touching the envelope - the mechanism behind the paper's
// observation that "amplitude-shift keying needs less SNR per bit than
// phase-shift keying" on real audio hardware (clock jitter and AM/PM
// asymmetry corrupt phase first).
#pragma once

#include <span>
#include <vector>

#include "dsp/fft.h"

namespace wearlock::dsp {

/// x as complex samples zero-padded to NextPowerOfTwo(x.size()) in this
/// thread's workspace, valid until the next call: the transform buffer
/// of AnalyticSignal and of the speaker's phase ripple.
ComplexVec& PaddedComplex(std::span<const double> x);

/// Analytic signal via the FFT method (zero negative frequencies, double
/// positive ones): x.size() entries in PaddedComplex's buffer, valid
/// until its next call. Real part equals x (up to edge padding error).
std::span<const Complex> AnalyticSignal(std::span<const double> x);

/// Rotate the instantaneous phase of x by theta[i] radians per sample,
/// in x's buffer. theta must be the same length as x. Returns the real
/// signal with the same envelope and shifted phase.
/// @throws std::invalid_argument on length mismatch.
RealVec RotatePhase(RealVec x, std::span<const double> theta);

}  // namespace wearlock::dsp
