#include "modem/demodulator.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft_plan.h"
#include "dsp/spl.h"
#include "dsp/workspace.h"
#include "modem/snr.h"
#include "modem/sync.h"
#include "obs/instrument.h"

namespace wearlock::modem {

Demodulator::Demodulator(FrameSpec spec, long fine_sync_range)
    : spec_(spec),
      fine_sync_range_(fine_sync_range),
      detector_(spec),
      geometry_(spec) {
  spec_.plan.Validate();
  data_bins_ = spec_.plan.data;
  std::sort(data_bins_.begin(), data_bins_.end());
  fft_plan_ = dsp::PlanCache::Shared().Get(spec_.fft_size());
}

long Demodulator::FrameOffset(std::span<const double> recording,
                              std::size_t symbols_start,
                              std::size_t n_symbols) const {
  WL_SPAN_V(span, "modem.sync.fine");
  const FineSyncResult sync = FineSyncJoint(
      recording, symbols_start, n_symbols, spec_, fine_sync_range_);
  WL_SPAN_ATTR(span, "metric", sync.metric);
  if (sync.metric < kMinSyncMetric) {
    // Unreliable metric: fall back to a conservative back-off into the CP.
    WL_COUNT("modem.sync.fine_fallback");
    return -static_cast<long>(spec_.cyclic_prefix_samples / 8);
  }
  WL_SPAN_ATTR(span, "offset", static_cast<double>(sync.offset));
  return sync.offset;
}

// lint: hot-path
const dsp::ComplexVec* Demodulator::SymbolSpectrumInto(
    std::span<const double> recording, std::size_t symbols_start,
    std::size_t index, long offset, dsp::Workspace& ws) const {
  const std::size_t cp_start = symbols_start + index * spec_.symbol_samples();
  const long body_start_signed = static_cast<long>(cp_start) + offset +
                                 static_cast<long>(spec_.cyclic_prefix_samples);
  if (body_start_signed < 0) return nullptr;
  const std::size_t body_start = static_cast<std::size_t>(body_start_signed);
  const std::size_t n = spec_.fft_size();
  if (body_start + n > recording.size()) return nullptr;
  dsp::ComplexVec& spectrum = ws.ComplexBuf(dsp::CSlot::kSymbolSpectrum, n);
  for (std::size_t i = 0; i < n; ++i) {
    spectrum[i] = dsp::Complex(recording[body_start + i], 0.0);
  }
  fft_plan_->Forward(spectrum.data());
  return &spectrum;
}

std::optional<DemodResult> Demodulator::Demodulate(
    std::span<const double> recording, Modulation m, std::size_t n_bits,
    bool with_llrs) const {
  WL_SPAN_V(span, "modem.demod");
  WL_TIMED_SERIES("modem.demod.host_ms");
  WL_COUNT("modem.demod.calls");
  const auto detection = detector_.Detect(recording);
  if (!detection) {
    WL_COUNT("modem.demod.no_preamble");
    return std::nullopt;
  }

  const std::size_t bits_per_ofdm =
      spec_.plan.data.size() * BitsPerSymbol(m);
  const std::size_t n_ofdm = (n_bits + bits_per_ofdm - 1) / bits_per_ofdm;
  const std::size_t symbols_start =
      detection->preamble_start + spec_.header_samples();

  DemodResult result;
  result.preamble_score = detection->score;
  result.preamble_start = detection->preamble_start;
  result.bits.reserve(n_ofdm * bits_per_ofdm);
  if (with_llrs) result.llrs.reserve(n_ofdm * bits_per_ofdm);
  double snr_acc = 0.0;
  const long offset = FrameOffset(recording, symbols_start, n_ofdm);
  // The fine-sync offset is common to the frame (see FrameOffset).
  result.fine_offsets.assign(n_ofdm, offset);
  dsp::Workspace& ws = dsp::Workspace::PerThread();
  WL_SPAN_V(eq_span, "modem.equalize_demap");
  WL_SPAN_ATTR(eq_span, "n_symbols", static_cast<double>(n_ofdm));
  for (std::size_t s = 0; s < n_ofdm; ++s) {
    const dsp::ComplexVec* spectrum =
        SymbolSpectrumInto(recording, symbols_start, s, offset, ws);
    if (spectrum == nullptr) {
      WL_COUNT("modem.demod.truncated");
      return std::nullopt;  // frame truncated
    }
    snr_acc += PilotSnrDb(spec_, *spectrum);

    const ChannelView channel = EstimateChannelInto(geometry_, *spectrum, ws);
    const std::span<const dsp::Complex> equalized =
        EqualizeInto(channel, *spectrum, data_bins_, ws);
    DemapSymbolsInto(m, equalized, result.bits);
    if (with_llrs) DemapSymbolsSoftInto(m, equalized, result.llrs);
  }
  result.mean_pilot_snr_db =
      n_ofdm > 0 ? snr_acc / static_cast<double>(n_ofdm) : 0.0;
  if (result.bits.size() < n_bits) return std::nullopt;
  result.bits.resize(n_bits);
  WL_SPAN_ATTR(span, "pilot_snr_db", result.mean_pilot_snr_db);
  WL_HIST("modem.demod.pilot_snr_db", result.mean_pilot_snr_db);
  if (with_llrs) {
    result.llrs.resize(n_bits);
    // LLR confidence profile: mean |LLR| says how separable the
    // constellation was after equalization.
    double abs_acc = 0.0;
    for (const double llr : result.llrs) abs_acc += std::fabs(llr);
    const double mean_abs = abs_acc / static_cast<double>(n_bits);
    WL_SPAN_ATTR(span, "mean_abs_llr", mean_abs);
    WL_HIST("modem.demod.mean_abs_llr", mean_abs);
  }
  return result;
}

std::optional<ProbeAnalysis> Demodulator::AnalyzeProbe(
    std::span<const double> recording) const {
  WL_SPAN_V(span, "modem.probe_analysis");
  WL_TIMED_SERIES("modem.probe_analysis.host_ms");
  WL_COUNT("modem.probe_analysis.calls");
  const auto detection = detector_.Detect(recording);
  if (!detection) {
    WL_COUNT("modem.probe_analysis.no_preamble");
    return std::nullopt;
  }

  ProbeAnalysis probe;
  probe.preamble_score = detection->score;
  probe.preamble_start = detection->preamble_start;

  // Delay profile from the full correlation trace around the peak.
  {
    WL_SPAN("modem.probe.delay_profile");
    const std::vector<double> scores = detector_.Scores(recording);
    if (!scores.empty()) {
      // The detection ran on a trimmed region; recover the peak index in
      // the full-trace coordinates (they match because Scores uses lag 0
      // at recording[0] and preamble_start is absolute).
      const std::size_t peak =
          std::min(detection->preamble_start, scores.size() - 1);
      probe.delay_profile = ComputeDelayProfile(
          scores, peak, spec_.plan.sample_rate_hz);
      probe.nlos = IsNlos(probe.delay_profile);
    }
  }

  // Ambient noise characterization from the pre-preamble segment.
  {
    WL_SPAN_V(noise_span, "modem.probe.noise_rank");
    if (detection->preamble_start >= spec_.fft_size()) {
      const std::span<const double> ambient =
          recording.first(detection->preamble_start);
      probe.noise_power = NoisePowerFromAmbient(spec_, ambient);
      probe.ambient_spl_db =
          dsp::SplOf(audio::Samples(ambient.begin(), ambient.end()));
    } else {
      probe.noise_power.assign(spec_.fft_size(), 0.0);
      probe.ambient_spl_db = -100.0;
    }
    WL_SPAN_ATTR(noise_span, "ambient_spl_db", probe.ambient_spl_db);
  }

  // Pilot SNR and channel estimate averaged over the block pilot
  // symbols (the first must be present; later ones may be truncated).
  WL_SPAN_V(pilot_span, "modem.probe.channel_estimate");
  const std::size_t symbols_start =
      detection->preamble_start + spec_.header_samples();
  double snr_acc = 0.0;
  std::size_t snr_n = 0;
  const long offset = FrameOffset(recording, symbols_start, kProbeSymbols);
  dsp::Workspace& ws = dsp::Workspace::PerThread();
  std::vector<ChannelEstimate> estimates;
  for (std::size_t s = 0; s < kProbeSymbols; ++s) {
    const dsp::ComplexVec* spectrum =
        SymbolSpectrumInto(recording, symbols_start, s, offset, ws);
    if (spectrum == nullptr) break;
    snr_acc += PilotSnrDb(spec_, *spectrum);
    ++snr_n;
    estimates.emplace_back(EstimateChannelInto(geometry_, *spectrum, ws));
  }
  if (snr_n == 0) return std::nullopt;
  probe.pilot_snr_db = snr_acc / static_cast<double>(snr_n);
  probe.channel = ChannelEstimate::Average(estimates);
  WL_SPAN_ATTR(span, "pilot_snr_db", probe.pilot_snr_db);
  WL_SPAN_ATTR(span, "nlos", probe.nlos ? 1.0 : 0.0);
  WL_HIST("modem.probe.pilot_snr_db", probe.pilot_snr_db);
  return probe;
}

}  // namespace wearlock::modem
