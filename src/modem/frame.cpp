#include "modem/frame.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/chirp.h"
#include "dsp/fft_plan.h"
#include "dsp/workspace.h"

namespace wearlock::modem {

dsp::Complex PilotValue(std::size_t bin) {
  // Golden-ratio phase scrambling: decorrelated phases, |value| = 1.
  constexpr double kGolden = 0.6180339887498949;
  const double frac = std::fmod(static_cast<double>(bin) * kGolden, 1.0);
  return std::polar(1.0, 2.0 * std::numbers::pi * frac);
}

audio::Samples MakePreamble(const FrameSpec& spec) {
  std::size_t lo = spec.plan.fft_size, hi = 0;
  for (std::size_t b : spec.plan.pilots) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  for (std::size_t b : spec.plan.data) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  dsp::ChirpSpec chirp;
  chirp.f_min_hz = spec.plan.FrequencyOfBin(lo);
  chirp.f_max_hz = spec.plan.FrequencyOfBin(hi);
  chirp.length_samples = kPreambleSamples;
  chirp.sample_rate_hz = spec.plan.sample_rate_hz;
  chirp.amplitude = 1.0;
  chirp.edge_fade_samples = kPreambleSamples / 16;
  return dsp::MakeChirp(chirp);
}

// lint: hot-path
void WriteSymbol(const FrameSpec& spec, const dsp::FftPlan& plan,
                 std::span<const BinLoad> fixed,
                 std::span<const std::size_t> data_bins,
                 std::span<const dsp::Complex> data_values,
                 dsp::Workspace& ws, std::span<double> out) {
  const std::size_t n = spec.fft_size();
  const std::size_t cp = spec.cyclic_prefix_samples;
  if (data_bins.size() != data_values.size()) {
    throw std::invalid_argument("WriteSymbol: data_bins/data_values mismatch");
  }
  if (out.size() != spec.symbol_samples()) {
    throw std::invalid_argument("WriteSymbol: out size != symbol_samples");
  }
  dsp::ComplexVec& spectrum = ws.ComplexZeroed(dsp::CSlot::kSymbolBuild, n);
  const auto load = [&](std::size_t bin, const dsp::Complex& value) {
    if (bin == 0 || bin >= n / 2) {
      throw std::invalid_argument("WriteSymbol: bin out of (0, N/2)");
    }
    spectrum[bin] = value;
    spectrum[n - bin] = std::conj(value);  // Hermitian -> real signal
  };
  for (const BinLoad& f : fixed) load(f.bin, f.value);
  for (std::size_t i = 0; i < data_bins.size(); ++i) {
    load(data_bins[i], data_values[i]);
  }
  plan.Inverse(spectrum.data());
  // Body goes to out[cp..cp+n); the cyclic prefix is then the body tail,
  // which already sits at out[n..n+cp).
  for (std::size_t i = 0; i < n; ++i) out[cp + i] = spectrum[i].real();
  for (std::size_t j = 0; j < cp; ++j) out[j] = out[n + j];
}

void NormalizeFrame(audio::Samples& frame) {
  double peak = 0.0;
  for (double v : frame) peak = std::max(peak, std::abs(v));
  if (peak <= 0.0) return;
  const double g = kPeakAmplitude / peak;
  for (double& v : frame) v *= g;
}

}  // namespace wearlock::modem
