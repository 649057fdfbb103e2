#include "modem/drift.h"

#include <algorithm>
#include <cmath>

#include "audio/impairments.h"
#include "dsp/resample.h"
#include "modem/detector.h"

namespace wearlock::modem {
namespace {

/// Normalized correlation of recording[at, at+n) against `ref`.
double CorrAt(std::span<const double> recording, std::span<const double> ref,
              std::size_t at) {
  const std::size_t n = ref.size();
  if (at + n > recording.size()) return 0.0;
  double dot = 0.0, ex = 0.0, er = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = recording[at + i];
    dot += x * ref[i];
    ex += x * x;
    er += ref[i] * ref[i];
  }
  const double denom = std::sqrt(ex * er);
  return denom > 1e-30 ? dot / denom : 0.0;
}

}  // namespace

DriftEstimate EstimateDrift(std::span<const double> recording,
                            const FrameSpec& spec, std::size_t expected_start) {
  DriftEstimate est;
  const PreambleDetector detector(spec);
  const auto detection = detector.Detect(recording);
  if (!detection) return est;
  est.valid = true;
  est.shift_samples = static_cast<long>(detection->preamble_start) -
                      static_cast<long>(expected_start);
  est.sro_ppm = static_cast<double>(est.shift_samples) /
                (audio::kClockAgeS * audio::kSampleRate) * 1e6;

  // Rate from pilot spacing: the probe's block-pilot symbols are
  // identical on the wire, so the lag maximizing the correlation between
  // the first and last pilot bodies *is* the received span of
  // (kProbeSymbols - 1) symbol periods. Sub-sample refinement comes from
  // a parabola through the peak and its neighbors.
  static_assert(kProbeSymbols >= 2, "the rate needs two pilots");
  const std::size_t span_symbols = kProbeSymbols - 1;
  const double nominal =
      static_cast<double>(span_symbols * spec.symbol_samples());
  const std::size_t first_body = detection->preamble_start +
                                 spec.header_samples() +
                                 spec.cyclic_prefix_samples;
  if (first_body + spec.fft_size() > recording.size()) return est;
  const std::span<const double> ref =
      recording.subspan(first_body, spec.fft_size());
  const long radius =
      static_cast<long>(std::ceil(kMaxRatePpm * 1e-6 * nominal)) + 3;

  long best_lag = 0;
  double best = -2.0;
  std::vector<double> scores(static_cast<std::size_t>(2 * radius + 1), -2.0);
  for (long d = -radius; d <= radius; ++d) {
    const long at = static_cast<long>(first_body) +
                    static_cast<long>(nominal) + d;
    if (at < 0) continue;
    const double score = CorrAt(recording, ref, static_cast<std::size_t>(at));
    scores[static_cast<std::size_t>(d + radius)] = score;
    if (score > best) {
      best = score;
      best_lag = d;
    }
  }
  est.rate_score = best;
  if (best < kMinRateScore) return est;

  // Parabolic sub-sample refinement around the peak.
  double lag = static_cast<double>(best_lag);
  const std::size_t c = static_cast<std::size_t>(best_lag + radius);
  if (c > 0 && c + 1 < scores.size() && scores[c - 1] > -2.0 &&
      scores[c + 1] > -2.0) {
    const double denom = scores[c - 1] - 2.0 * scores[c] + scores[c + 1];
    if (std::abs(denom) > 1e-12) {
      const double delta = 0.5 * (scores[c - 1] - scores[c + 1]) / denom;
      if (std::abs(delta) <= 1.0) lag += delta;
    }
  }
  // Received span m maps to transmitted span `nominal` via m = nominal /
  // rate (the channel renders y[i] = x[i * rate]).
  const double measured = nominal + lag;
  if (measured > 0.0) {
    const double rate = nominal / measured;
    est.rate_ppm = (rate - 1.0) * 1e6;
    if (std::abs(est.rate_ppm) > kMaxRatePpm) {
      est.rate_ppm = 0.0;  // outside the searched envelope: distrust it
    }
  }
  return est;
}

audio::Samples CompensateRate(const audio::Samples& recording,
                              double rate_ppm) {
  if (rate_ppm == 0.0) return recording;
  // The channel produced y[i] = x[i * rate]; resampling y at 1/rate
  // restores x's timeline.
  return dsp::WarpTimeSinc(recording, 1.0 / (1.0 + rate_ppm * 1e-6));
}

}  // namespace wearlock::modem
