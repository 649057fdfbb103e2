// RX path of the acoustic modem (Fig. 3, right): silence gate, preamble
// detection, coarse+fine synchronization, FFT, channel estimation,
// equalization, constellation de-mapping - plus the RTS probe analysis
// (noise ranking, pilot SNR, NLOS delay spread) that drives adaptation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "audio/signal.h"
#include "modem/constellation.h"
#include "modem/detector.h"
#include "modem/equalizer.h"
#include "modem/frame.h"
#include "modem/nlos.h"

namespace wearlock::modem {

/// Default +/- search range (samples) of the cyclic-prefix fine sync.
inline constexpr long kFineSyncRange = 48;
/// CP-correlation quality gate: below this the fine-sync result is
/// noise (low SNR, or the probe's repeated symbols making the metric
/// ambiguous) and a small back-off into the cyclic prefix is used
/// instead - a few samples early is a harmless circular shift that the
/// per-symbol equalizer absorbs, while a wrong offset is fatal.
inline constexpr double kMinSyncMetric = 0.45;

struct DemodResult {
  std::vector<std::uint8_t> bits;   ///< exactly the requested n_bits
  /// Per-bit LLRs (positive = bit 0 likelier) for soft-decision
  /// decoding, n_bits of them; empty unless asked for.
  std::vector<double> llrs;
  double preamble_score = 0.0;
  std::size_t preamble_start = 0;
  std::vector<long> fine_offsets;   ///< per-symbol fine-sync correction
  double mean_pilot_snr_db = 0.0;   ///< averaged over symbols
};

/// Everything Phase 1 learns from the RTS probing packet.
struct ProbeAnalysis {
  double preamble_score = 0.0;
  std::size_t preamble_start = 0;
  DelayProfile delay_profile;
  bool nlos = false;
  double pilot_snr_db = 0.0;        ///< Eq. 3 on the block pilot symbol
  std::vector<double> noise_power;  ///< per-bin, from pre-preamble ambience
  double ambient_spl_db = 0.0;      ///< SPL of the pre-preamble segment
  ChannelEstimate channel;
};

class Demodulator {
 public:
  /// `fine_sync_range` is the +/- search range (samples) of the
  /// cyclic-prefix fine sync.
  /// @throws std::invalid_argument if the plan is invalid or its FFT
  /// size is not a power of two.
  explicit Demodulator(FrameSpec spec, long fine_sync_range = kFineSyncRange);

  /// Demodulate a payload of n_bits (the length is agreed over the
  /// control channel). Returns nullopt when no preamble is found or the
  /// recording is too short for the expected frame. The recording is a
  /// view, so callers can pass a slice of a capture without copying; the
  /// per-symbol chain runs on this thread's dsp::Workspace. With
  /// `with_llrs` the same pass also soft-demaps the equalized symbols
  /// into DemodResult::llrs.
  std::optional<DemodResult> Demodulate(std::span<const double> recording,
                                        Modulation m, std::size_t n_bits,
                                        bool with_llrs = false) const;

  /// Analyze an RTS probe recording (preamble + guard + block pilot).
  std::optional<ProbeAnalysis> AnalyzeProbe(
      std::span<const double> recording) const;

  const FrameSpec& spec() const { return spec_; }

 private:
  /// Spectrum of symbol `index` at a given common fine-sync offset,
  /// computed into ws slot CSlot::kSymbolSpectrum through the cached FFT
  /// plan; nullptr if out of bounds. The pointer is valid until the next
  /// call on the same workspace.
  const dsp::ComplexVec* SymbolSpectrumInto(std::span<const double> recording,
                                            std::size_t symbols_start,
                                            std::size_t index, long offset,
                                            dsp::Workspace& ws) const;

  /// Joint fine-sync offset for a frame of n_symbols, with the
  /// kMinSyncMetric fallback applied.
  long FrameOffset(std::span<const double> recording, std::size_t symbols_start,
                   std::size_t n_symbols) const;

  FrameSpec spec_;
  long fine_sync_range_;
  PreambleDetector detector_;
  /// Per-instance caches resolved at construction: sorted data bins,
  /// pilot geometry, and the symbol FFT plan.
  std::vector<std::size_t> data_bins_;
  PilotGeometry geometry_;
  std::shared_ptr<const dsp::FftPlan> fft_plan_;
};

}  // namespace wearlock::modem
