// Silence gating and preamble detection (paper §III-4).
//
// An energy detector first skips sections whose SPL stays below the
// predefined noise gate; only then does the (more expensive) normalized
// cross-correlator search for the chirp preamble and threshold its score
// (the paper aborts below 0.05).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "audio/signal.h"
#include "modem/frame.h"

namespace wearlock::modem {

/// Normalized correlation score below which no preamble is declared.
inline constexpr double kScoreThreshold = 0.05;
/// Energy gate: SPL (dB) above the measured noise floor that marks
/// "signal present".
inline constexpr double kEnergyGateDb = 6.0;
/// Window for the energy detector (samples).
inline constexpr std::size_t kEnergyWindow = 256;

struct Detection {
  std::size_t preamble_start = 0;  ///< sample index of the chirp start
  double score = 0.0;              ///< normalized correlation peak
  std::size_t search_begin = 0;    ///< where the energy gate opened
};

class PreambleDetector {
 public:
  explicit PreambleDetector(const FrameSpec& spec);

  /// Find the preamble in a recording. Returns nullopt if the energy
  /// gate never opens or the correlation peak is under threshold.
  /// Runs entirely on this thread's dsp::Workspace - no region copies,
  /// no per-call score vectors - and, like Scores(), takes the
  /// preamble's spectrum from dsp::SpectrumCache::Shared().
  std::optional<Detection> Detect(std::span<const double> recording) const;

  /// Raw normalized correlation scores against the preamble template
  /// (exposed for the NLOS delay-profile analysis).
  std::vector<double> Scores(std::span<const double> recording) const;

  /// First sample index whose surrounding window exceeds the noise floor
  /// by the energy gate, or nullopt if the recording stays silent.
  /// The noise floor is estimated from the quietest decile of windows.
  std::optional<std::size_t> FindSignalOnset(
      std::span<const double> recording) const;

 private:
  audio::Samples preamble_;
};

}  // namespace wearlock::modem
