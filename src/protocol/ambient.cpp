#include "protocol/ambient.h"

#include <algorithm>
#include <cmath>

#include "dsp/correlate.h"
#include "dsp/filter.h"

namespace wearlock::protocol {
namespace {

audio::Samples BandPass(audio::Samples x) {
  static_assert(0.0 < kAmbientBandLowHz &&
                kAmbientBandHighHz < audio::kSampleRate / 2.0);
  dsp::Biquad::HighPass(kAmbientBandLowHz, audio::kSampleRate).ProcessBlock(x);
  dsp::Biquad::LowPass(kAmbientBandHighHz, audio::kSampleRate).ProcessBlock(x);
  return x;
}

}  // namespace

namespace {

// One-directional search: slide a template cut from the head of `b`
// across `a` (covers the case where b's content appears later in a).
double OneSidedSimilarity(const audio::Samples& a, const audio::Samples& b,
                          std::size_t max_lag) {
  max_lag = std::min(max_lag, a.size() / 4);
  std::size_t tmpl_len = std::min(b.size(), a.size());
  if (tmpl_len + max_lag > a.size()) {
    tmpl_len = a.size() > max_lag ? a.size() - max_lag : a.size();
  }
  if (tmpl_len < 256) return 0.0;
  audio::Samples tmpl(b.begin(), b.begin() + static_cast<long>(tmpl_len));
  const std::vector<double> scores = dsp::NormalizedCrossCorrelate(a, tmpl);
  double best = 0.0;
  for (double s : scores) best = std::max(best, std::abs(s));
  return best;
}

}  // namespace

double AmbientSimilarity(const audio::Samples& phone_ambient,
                         const audio::Samples& watch_ambient) {
  if (phone_ambient.size() < 256 || watch_ambient.size() < 256) return 0.0;
  const audio::Samples a = BandPass(phone_ambient);
  const audio::Samples b = BandPass(watch_ambient);
  // Either device may lag the other (mic-chain group delay, recording
  // start skew), so search both directions.
  return std::max(OneSidedSimilarity(a, b, kAmbientMaxLag),
                  OneSidedSimilarity(b, a, kAmbientMaxLag));
}

}  // namespace wearlock::protocol
