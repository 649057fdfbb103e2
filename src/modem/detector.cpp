#include "modem/detector.h"

#include <algorithm>
#include <cmath>

#include "dsp/correlate.h"
#include "dsp/spl.h"
#include "dsp/workspace.h"
#include "obs/instrument.h"

namespace wearlock::modem {

PreambleDetector::PreambleDetector(const FrameSpec& spec)
    : preamble_(MakePreamble(spec)) {}

std::vector<double> PreambleDetector::Scores(
    std::span<const double> recording) const {
  if (recording.size() < preamble_.size()) return {};
  std::vector<double> scores(recording.size() - preamble_.size() + 1);
  dsp::NormalizedCrossCorrelateCachedInto(recording, preamble_,
                                          dsp::Workspace::PerThread(), scores);
  return scores;
}

// lint: hot-path
std::optional<std::size_t> PreambleDetector::FindSignalOnset(
    std::span<const double> recording) const {
  const std::size_t w = kEnergyWindow;
  if (recording.size() < w) return std::nullopt;
  // Window RMS sequence, in this thread's workspace.
  dsp::Workspace& ws = dsp::Workspace::PerThread();
  const std::size_t n_windows = recording.size() / w;
  if (n_windows == 0) return std::nullopt;
  dsp::RealVec& window_rms = ws.RealBuf(dsp::RSlot::kOnsetRms, n_windows);
  for (std::size_t k = 0; k < n_windows; ++k) {
    const std::size_t i = k * w;
    double e = 0.0;
    for (std::size_t j = 0; j < w; ++j) e += recording[i + j] * recording[i + j];
    window_rms[k] = std::sqrt(e / static_cast<double>(w));
  }
  // Noise floor: quietest decile (robust when most of the buffer is
  // signal).
  dsp::RealVec& sorted = ws.RealBuf(dsp::RSlot::kOnsetSorted, n_windows);
  std::copy(window_rms.begin(), window_rms.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  const double floor_rms =
      std::max(sorted[sorted.size() / 10], dsp::kReferencePressure);
  const double gate = floor_rms * std::pow(10.0, kEnergyGateDb / 20.0);
  for (std::size_t i = 0; i < window_rms.size(); ++i) {
    if (window_rms[i] > gate) return i * w;
  }
  return std::nullopt;
}

// lint: hot-path
std::optional<Detection> PreambleDetector::Detect(
    std::span<const double> recording) const {
  WL_SPAN_V(span, "modem.sync.detect");
  WL_TIMED_SERIES("modem.sync.host_ms");
  WL_COUNT("modem.sync.calls");
  const auto onset = FindSignalOnset(recording);
  if (!onset) {
    WL_COUNT("modem.sync.silent");
    return std::nullopt;
  }
  // Search from a little before the gate opening (the gate has window
  // granularity). The region is a view, not a copy, and the correlation
  // scores land in workspace scratch.
  const std::size_t begin =
      *onset >= kEnergyWindow ? *onset - kEnergyWindow : 0;
  const std::span<const double> region = recording.subspan(begin);
  if (region.size() < preamble_.size()) return std::nullopt;
  dsp::Workspace& ws = dsp::Workspace::PerThread();
  dsp::RealVec& scores = ws.RealBuf(dsp::RSlot::kDetectorScores,
                                    region.size() - preamble_.size() + 1);
  dsp::NormalizedCrossCorrelateCachedInto(region, preamble_, ws, scores);
  const dsp::PeakResult peak = dsp::FindPeak(scores);
  if (peak.score < kScoreThreshold) {
    WL_COUNT("modem.sync.no_preamble");
    return std::nullopt;
  }
  Detection d;
  d.preamble_start = begin + peak.index;
  d.score = peak.score;
  d.search_begin = begin;
  WL_SPAN_ATTR(span, "score", d.score);
  WL_HIST("modem.sync.score", d.score);
  return d;
}

}  // namespace wearlock::modem
