#include "audio/signal.h"

#include <algorithm>
#include <cmath>

namespace wearlock::audio {

void MixInto(Samples& y, const Samples& x) { MixIntoAt(y, x, 0); }

void MixIntoAt(Samples& y, const Samples& x, std::size_t offset) {
  if (offset + x.size() > y.size()) y.resize(offset + x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) y[offset + i] += x[i];
}

void Scale(std::span<double> x, double gain) {
  for (double& v : x) v *= gain;
}

void Clip(std::span<double> x, double limit) {
  for (double& v : x) v = std::clamp(v, -limit, limit);
}

void Append(Samples& a, const Samples& b) {
  a.insert(a.end(), b.begin(), b.end());
}

Samples Silence(std::size_t n) { return Samples(n, 0.0); }

std::size_t SamplesFromSeconds(double seconds) {
  return static_cast<std::size_t>(std::lround(seconds * kSampleRate));
}

}  // namespace wearlock::audio
