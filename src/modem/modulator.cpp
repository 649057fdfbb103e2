#include "modem/modulator.h"

#include <algorithm>

#include "dsp/fft_plan.h"
#include "dsp/window.h"
#include "dsp/workspace.h"

namespace wearlock::modem {

Modulator::Modulator(FrameSpec spec) : spec_(spec), preamble_(MakePreamble(spec)) {
  spec_.plan.Validate();
  pilot_loads_.reserve(spec_.plan.pilots.size());
  for (std::size_t b : spec_.plan.pilots) {
    pilot_loads_.push_back(BinLoad{b, PilotValue(b)});
  }
  // Data bins are filled in ascending frequency order.
  data_bins_ = spec_.plan.data;
  std::sort(data_bins_.begin(), data_bins_.end());
  probe_loads_ = pilot_loads_;
  probe_loads_.reserve(pilot_loads_.size() + spec_.plan.data.size());
  for (std::size_t b : spec_.plan.data) {
    probe_loads_.push_back(BinLoad{b, PilotValue(b)});
  }
}

TxFrame Modulator::ModulateBits(Modulation m,
                                const std::vector<std::uint8_t>& bits) const {
  const Constellation& c = Constellation::Get(m);
  std::vector<dsp::Complex> symbols = MapBits(m, bits);
  // Pad the symbol stream to a whole number of OFDM symbols.
  const std::size_t per_ofdm = spec_.plan.data.size();
  while (symbols.size() % per_ofdm != 0) symbols.push_back(c.Map(0));
  const std::size_t n_ofdm = symbols.size() / per_ofdm;

  TxFrame frame;
  frame.n_bits = bits.size();
  frame.n_symbols = n_ofdm;
  // Assemble in place: preamble, zero guard (from the fill), then each
  // symbol written directly into its slice - no per-symbol vectors.
  frame.samples.assign(spec_.FrameSamples(n_ofdm), 0.0);
  std::copy(preamble_.begin(), preamble_.end(), frame.samples.begin());
  const auto plan = dsp::PlanCache::Shared().Get(spec_.fft_size());
  dsp::Workspace& ws = dsp::Workspace::PerThread();
  const std::span<double> out(frame.samples);
  const std::span<const dsp::Complex> all_symbols(symbols);
  for (std::size_t s = 0; s < n_ofdm; ++s) {
    WriteSymbol(spec_, *plan, pilot_loads_, data_bins_,
                all_symbols.subspan(s * per_ofdm, per_ofdm), ws,
                out.subspan(spec_.header_samples() + s * spec_.symbol_samples(),
                            spec_.symbol_samples()));
  }
  NormalizeFrame(frame.samples);
  // Soften the very start against the speaker rise effect.
  dsp::ApplyFadeIn(frame.samples, 8);
  return frame;
}

TxFrame Modulator::MakeProbeFrame() const {
  TxFrame frame;
  frame.n_bits = 0;
  frame.n_symbols = kProbeSymbols;
  frame.samples.assign(spec_.FrameSamples(kProbeSymbols), 0.0);
  std::copy(preamble_.begin(), preamble_.end(), frame.samples.begin());
  const auto plan = dsp::PlanCache::Shared().Get(spec_.fft_size());
  const std::span<double> out(frame.samples);
  const std::span<double> first =
      out.subspan(spec_.header_samples(), spec_.symbol_samples());
  WriteSymbol(spec_, *plan, probe_loads_, {}, {}, dsp::Workspace::PerThread(),
              first);
  // The block pilot symbol repeats verbatim.
  for (std::size_t s = 1; s < kProbeSymbols; ++s) {
    std::copy(first.begin(), first.end(),
              out.begin() +
                  static_cast<std::ptrdiff_t>(spec_.header_samples() +
                                              s * spec_.symbol_samples()));
  }
  NormalizeFrame(frame.samples);
  dsp::ApplyFadeIn(frame.samples, 8);
  return frame;
}

}  // namespace wearlock::modem
