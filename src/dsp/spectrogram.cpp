#include "dsp/spectrogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/window.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {

Spectrogram ComputeSpectrogram(const std::vector<double>& x,
                               const SpectrogramOptions& options) {
  if (x.empty()) throw std::invalid_argument("ComputeSpectrogram: empty input");
  if (!IsPowerOfTwo(options.fft_size)) {
    throw std::invalid_argument("ComputeSpectrogram: fft_size not power of two");
  }
  if (options.hop == 0) throw std::invalid_argument("ComputeSpectrogram: hop 0");

  Spectrogram out;
  out.bin_hz = options.sample_rate_hz / static_cast<double>(options.fft_size);
  out.frame_s = static_cast<double>(options.hop) / options.sample_rate_hz;
  const auto window = MakeWindow(WindowType::kHann, options.fft_size);

  const auto plan = PlanCache::Shared().Get(options.fft_size);
  Workspace& ws = Workspace::PerThread();
  for (std::size_t start = 0; start + options.fft_size <= x.size();
       start += options.hop) {
    RealVec& frame = ws.RealBuf(RSlot::kSpectroFrame, options.fft_size);
    std::copy(x.begin() + static_cast<long>(start),
              x.begin() + static_cast<long>(start + options.fft_size),
              frame.begin());
    ApplyWindow(frame, window);
    ComplexVec& spectrum =
        ws.ComplexBuf(CSlot::kSpectroSpec, options.fft_size);
    for (std::size_t i = 0; i < options.fft_size; ++i) {
      spectrum[i] = Complex(frame[i], 0.0);
    }
    plan->Forward(spectrum.data());
    std::vector<double> row(options.fft_size / 2);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const double p = std::norm(spectrum[k]);
      row[k] = p > 0.0 ? std::max(10.0 * std::log10(p), out.floor_db)
                       : out.floor_db;
    }
    out.power_db.push_back(std::move(row));
  }
  return out;
}

std::string RenderAscii(const Spectrogram& spectrogram, std::size_t max_cols,
                        std::size_t max_rows) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kLevels = sizeof(kRamp) - 2;
  if (spectrogram.power_db.empty()) return "(empty spectrogram)\n";

  const std::size_t frames = spectrogram.power_db.size();
  const std::size_t bins = spectrogram.power_db.front().size();
  const std::size_t cols = std::min(max_cols, frames);
  const std::size_t rows = std::min(max_rows, bins);

  // Dynamic range from the data.
  double lo = 1e30, hi = -1e30;
  for (const auto& row : spectrogram.power_db) {
    for (double v : row) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (hi - lo < 1e-9) hi = lo + 1.0;

  std::string art;
  for (std::size_t r = 0; r < rows; ++r) {
    // Top row = highest frequency.
    const std::size_t bin = (rows - 1 - r) * bins / rows;
    const double freq = static_cast<double>(bin) * spectrogram.bin_hz;
    char label[16];
    std::snprintf(label, sizeof(label), "%5.0f|", freq);
    art += label;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t frame = c * frames / cols;
      // Peak over the cell's bin/frame span so narrow tones stay visible.
      double cell = spectrogram.floor_db;
      const std::size_t bin_end = (rows - r) * bins / rows;
      const std::size_t frame_end = std::max((c + 1) * frames / cols, frame + 1);
      for (std::size_t f = frame; f < frame_end && f < frames; ++f) {
        for (std::size_t b = bin; b < bin_end && b < bins; ++b) {
          cell = std::max(cell, spectrogram.power_db[f][b]);
        }
      }
      const double t = (cell - lo) / (hi - lo);
      const std::size_t level = std::min(
          kLevels, static_cast<std::size_t>(t * static_cast<double>(kLevels + 1)));
      art += kRamp[level];
    }
    art += '\n';
  }
  art += "  Hz +";
  art += std::string(cols, '-');
  art += '\n';
  return art;
}

}  // namespace wearlock::dsp
