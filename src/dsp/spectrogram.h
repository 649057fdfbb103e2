// Spectrogram computation and a terminal renderer.
//
// Debugging aid: eyeball what the modem put on the air (or what a mic
// heard) without leaving the terminal - which sub-channels carry energy,
// where the chirp sweeps, what the jammer is doing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wearlock::dsp {

struct SpectrogramOptions {
  std::size_t fft_size = 256;
  std::size_t hop = 128;
  double sample_rate_hz = 44100.0;
};

struct Spectrogram {
  /// power_db[frame][bin], bins 0..fft_size/2 - 1; silent cells are
  /// clamped to floor_db.
  std::vector<std::vector<double>> power_db;
  double bin_hz = 0.0;
  double frame_s = 0.0;
  double floor_db = -120.0;
};

/// Hann-windowed STFT power in dB. @throws std::invalid_argument for
/// empty input or a non-power-of-two FFT size.
Spectrogram ComputeSpectrogram(const std::vector<double>& x,
                               const SpectrogramOptions& options = {});

/// Render as ASCII art: time left->right, frequency bottom->top,
/// intensity " .:-=+*#%@" over the spectrogram's dynamic range.
/// `max_cols`/`max_rows` downsample large inputs to fit a terminal.
std::string RenderAscii(const Spectrogram& spectrogram,
                        std::size_t max_cols = 100, std::size_t max_rows = 24);

}  // namespace wearlock::dsp
