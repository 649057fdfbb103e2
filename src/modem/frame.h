// Physical frame layout and OFDM symbol construction (Fig. 3 TX path).
//
// A WearLock frame is:
//   [chirp preamble | post-preamble guard | (CP + symbol body) x n]
// with paper defaults: 256-sample preamble, 1024-sample guard, 128-sample
// cyclic prefix, 256-point FFT at 44.1 kHz.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/signal.h"
#include "dsp/fft.h"
#include "modem/subchannel.h"

namespace wearlock::dsp {
class FftPlan;    // dsp/fft_plan.h
class Workspace;  // dsp/workspace.h
}  // namespace wearlock::dsp

namespace wearlock::modem {

/// Chirp preamble length (samples).
inline constexpr std::size_t kPreambleSamples = 256;
/// Block-pilot symbols in the RTS probe frame; more symbols average down
/// the pilot-SNR estimation noise that the secure-range bound keys on,
/// and modem::EstimateDrift times the first-to-last pilot span.
inline constexpr std::size_t kProbeSymbols = 3;
/// Frames are peak-normalized to this digital amplitude before hitting
/// the speaker (avoids driver clipping).
inline constexpr double kPeakAmplitude = 0.95;

struct FrameSpec {
  SubchannelPlan plan = SubchannelPlan::Audible();
  std::size_t cyclic_prefix_samples = 128;

  std::size_t fft_size() const { return plan.fft_size; }
  std::size_t symbol_samples() const {
    return cyclic_prefix_samples + plan.fft_size;
  }
  /// Samples before the first OFDM symbol: the preamble, then the guard
  /// interval Tg (audio::kGuardIntervalSamples).
  std::size_t header_samples() const {
    return kPreambleSamples + audio::kGuardIntervalSamples;
  }
  /// Total frame length for n symbols.
  std::size_t FrameSamples(std::size_t n_symbols) const {
    return header_samples() + n_symbols * symbol_samples();
  }
  /// Symbol duration including guard (Tg + Ts in the rate formula).
  double SymbolSeconds() const {
    return static_cast<double>(symbol_samples()) / plan.sample_rate_hz;
  }
  /// Raw data rate R = |D| * log2(M) / (Tg + Ts) for a modulation with
  /// `bits_per_symbol` bits (rc = 1, no channel coding).
  double DataRateBps(unsigned bits_per_symbol) const {
    return static_cast<double>(plan.data.size()) *
           static_cast<double>(bits_per_symbol) / SymbolSeconds();
  }
};

/// Deterministic unit-magnitude pilot value for a bin (pseudo-random
/// phase; keeps the pilot symbol's PAPR low while staying known a-priori
/// on both sides).
dsp::Complex PilotValue(std::size_t bin);

/// The frame's chirp preamble: an LFM sweep across the plan's occupied
/// band (Doppler-tolerant, strong autocorrelation).
audio::Samples MakePreamble(const FrameSpec& spec);

/// One spectral load for WriteSymbol: `value` goes to `bin` (the
/// Hermitian mirror bin is filled internally).
struct BinLoad {
  std::size_t bin = 0;
  dsp::Complex value;
};

/// Build one time-domain OFDM symbol (CP prepended) from bin loads:
/// writes exactly spec.symbol_samples() samples into `out`, running the
/// IFFT through `plan` and the workspace's scratch so steady-state calls
/// allocate nothing. Bins not loaded stay zero; Hermitian symmetry is
/// applied internally so the output is real. `fixed` carries
/// precomputed loads (pilots); `data_bins[i]` carries `data_values[i]`.
/// All bins must be distinct.
/// @throws std::invalid_argument on a bin out of (0, N/2), a
/// data_bins/data_values length mismatch, or a mis-sized `out`.
void WriteSymbol(const FrameSpec& spec, const dsp::FftPlan& plan,
                 std::span<const BinLoad> fixed,
                 std::span<const std::size_t> data_bins,
                 std::span<const dsp::Complex> data_values,
                 dsp::Workspace& ws, std::span<double> out);

/// Peak-normalize a frame to kPeakAmplitude (no-op on silence).
void NormalizeFrame(audio::Samples& frame);

}  // namespace wearlock::modem
