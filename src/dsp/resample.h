// Fractional delay and simple delay utilities.
//
// The propagation model delays each transmitter->receiver path by
// distance / c, which is generally a non-integer number of samples at
// 44.1 kHz; a windowed-sinc fractional delay keeps the chirp correlation
// peak sharp.
#pragma once

#include <cstddef>
#include <vector>

namespace wearlock::dsp {

/// Delay `x` by an integer number of samples (prepends zeros), in x's
/// buffer.
std::vector<double> DelayInteger(std::vector<double> x,
                                 std::size_t delay_samples);

/// Delay `x` by a (possibly fractional, possibly > 1) number of samples
/// using a windowed-sinc interpolator with `taps` coefficients per output
/// sample (odd, default 33), in x's buffer. Output length is x.size() +
/// ceil(delay).
/// @throws std::invalid_argument for negative delay or even/zero taps.
std::vector<double> DelayFractional(std::vector<double> x,
                                    double delay_samples,
                                    std::size_t taps = 33);

/// Resample x at a constant rate ratio: output[i] = x(i * rate),
/// interpolated with `taps` windowed-sinc coefficients per output
/// sample. rate > 1 compresses (receiver approaching, positive Doppler),
/// rate < 1 stretches. The sinc kernel keeps OFDM constellations clean
/// where linear interpolation's high-band droop would not; the walker
/// Doppler, sample-rate offset and the hardened receiver's rate
/// compensation all warp through it. Output length is
/// floor(x.size() / rate).
/// @throws std::invalid_argument for rate <= 0 or even/zero taps.
std::vector<double> WarpTimeSinc(const std::vector<double>& x, double rate,
                                 std::size_t taps = 17);

}  // namespace wearlock::dsp
