// Mono PCM buffer type and elementwise helpers shared across the
// acoustic simulator and the modem.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wearlock::audio {

/// Mono audio at the session sample rate; values are dimensionless
/// "digital pressure" (see dsp::kReferencePressure for SPL calibration).
using Samples = std::vector<double>;

/// The sampling rate used throughout the system (native rate of the
/// paper's devices).
inline constexpr double kSampleRate = 44100.0;

/// Ambient every capture records before the signal arrives (samples):
/// the receiver's noise-floor material and the protocol's pre-preamble
/// ambient window. TwoMicScene and AcousticChannel both open with it.
inline constexpr std::size_t kLeadInSamples = 4096;

/// The frame's guard interval Tg after the chirp preamble (samples).
/// The paper sizes Tg past the speaker's "largest reverberation
/// length": modem::FrameSpec lays every frame out with it, and
/// TwoMicScene refuses a speaker whose ringing tail is longer.
inline constexpr std::size_t kGuardIntervalSamples = 1024;

/// y += x (x may be shorter; added from offset 0). Grows y if x is longer.
void MixInto(Samples& y, const Samples& x);

/// y += x starting at sample `offset` in y; grows y if needed.
void MixIntoAt(Samples& y, const Samples& x, std::size_t offset);

/// Elementwise scale in place.
void Scale(std::span<double> x, double gain);

/// Hard-clip to [-limit, limit] (speaker/mic saturation).
void Clip(std::span<double> x, double limit);

/// Concatenate b onto a.
void Append(Samples& a, const Samples& b);

/// A silent buffer of n samples.
Samples Silence(std::size_t n);

/// Seconds -> whole samples at kSampleRate (rounded).
std::size_t SamplesFromSeconds(double seconds);

}  // namespace wearlock::audio
