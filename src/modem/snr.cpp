#include "modem/snr.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fft_plan.h"
#include "dsp/spl.h"
#include "dsp/workspace.h"

namespace wearlock::modem {
namespace {

double MeanBinPower(const dsp::ComplexVec& spectrum,
                    const std::vector<std::size_t>& bins) {
  if (bins.empty()) throw std::invalid_argument("MeanBinPower: empty bin set");
  double acc = 0.0;
  for (std::size_t b : bins) acc += std::norm(spectrum[b]);
  return acc / static_cast<double>(bins.size());
}

}  // namespace

double PilotSnrLinear(const FrameSpec& spec, const dsp::ComplexVec& spectrum) {
  const double p_pilot = MeanBinPower(spectrum, spec.plan.pilots);
  const double p_null = MeanBinPower(spectrum, spec.plan.nulls);
  if (p_null <= 0.0) return p_pilot > 0.0 ? 1e12 : 0.0;
  return std::max(0.0, (p_pilot - p_null) / p_null);
}

double PilotSnrDb(const FrameSpec& spec, const dsp::ComplexVec& spectrum) {
  const double lin = PilotSnrLinear(spec, spectrum);
  if (lin <= 0.0) return -100.0;
  return 10.0 * std::log10(lin);
}

double EbN0Db(const FrameSpec& spec, Modulation m, double snr_db) {
  const double bandwidth = spec.plan.OccupiedBandwidthHz();
  const double rate = spec.DataRateBps(BitsPerSymbol(m));
  return dsp::EbN0FromSnrDb(snr_db, bandwidth, rate);
}

std::vector<double> NoisePowerFromAmbient(const FrameSpec& spec,
                                          std::span<const double> ambient) {
  const std::size_t n = spec.fft_size();
  if (ambient.size() < n) {
    throw std::invalid_argument("NoisePowerFromAmbient: recording shorter than FFT");
  }
  // Accumulate |X(k)|^2 window by window through one reused spectrum
  // buffer.
  const auto plan = dsp::PlanCache::Shared().Get(n);
  dsp::Workspace& ws = dsp::Workspace::PerThread();
  std::vector<double> power(n, 0.0);
  std::size_t windows = 0;
  for (std::size_t i = 0; i + n <= ambient.size(); i += n) {
    dsp::ComplexVec& spectrum = ws.ComplexBuf(dsp::CSlot::kNoiseSpectrum, n);
    for (std::size_t j = 0; j < n; ++j) {
      spectrum[j] = dsp::Complex(ambient[i + j], 0.0);
    }
    plan->Forward(spectrum.data());
    for (std::size_t k = 0; k < n; ++k) power[k] += std::norm(spectrum[k]);
    ++windows;
  }
  for (double& p : power) p /= static_cast<double>(windows);
  return power;
}

}  // namespace wearlock::modem
