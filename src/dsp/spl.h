// Sound-pressure-level and SNR arithmetic (paper §III "The Acoustic
// Channel").
//
// The simulator works with dimensionless digital samples; SPL is defined
// against a fixed digital reference pressure so that the paper's absolute
// numbers (quiet room 15-20 dB, spherical-loss -6 dB per doubling) can be
// reproduced: SPL = 20*log10(rms / kReferencePressure).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wearlock::dsp {

/// Digital reference pressure: a full-scale (amplitude 1.0) sine has
/// rms = 1/sqrt(2) and maps to ~94 dB SPL, mirroring the common
/// 94 dB == 1 Pa calibration of acoustic test gear.
inline constexpr double kReferencePressure = 1.411e-5;

/// Root-mean-square of a buffer (0 for empty input).
double Rms(std::span<const double> x);

/// SPL (dB) of an rms pressure value. @throws if rms < 0.
double SplFromRms(double rms);

/// SPL (dB) of a signal buffer; empty or silent buffers return -infinity.
double SplOf(const std::vector<double>& x);

/// Inverse of SplFromRms.
double RmsFromSpl(double spl_db);

/// Spherical spreading loss in dB between d0 and d (paper:
/// SPLtx - SPLrx = 20*g*log10(d/d0)). @throws if d or d0 <= 0.
double SpreadingLossDb(double distance_m, double reference_distance_m,
                       double geometric_constant = 1.0);

/// Convert a carrier-to-noise SNR (dB) into Eb/N0 (dB) given occupied
/// bandwidth and bit rate: Eb/N0 = C/N * B/R (paper §III-7).
double EbN0FromSnrDb(double snr_db, double bandwidth_hz, double bit_rate_bps);

}  // namespace wearlock::dsp
