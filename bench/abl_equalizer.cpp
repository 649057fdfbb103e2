// Ablation: pilot-based channel equalization.
//
// Compares three receivers on the same recordings:
//   full     - pilot extraction + FFT interpolation + one-tap equalizer
//   pilot-only - equalize every data bin by its *nearest pilot's*
//              estimate (no interpolation)
//   none     - demap raw FFT outputs
// The speaker's ragged phase response and the multipath channel make the
// equalizer the difference between a working and a dead modem. Each
// receiver variant is one bench::SweepRunner task.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "dsp/fft.h"
#include "dsp/workspace.h"
#include "modem/demodulator.h"
#include "modem/equalizer.h"
#include "modem/modem.h"
#include "modem/sync.h"
#include "protocol/phone_controller.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

enum class EqMode { kFull, kNearestPilot, kNone };

// A hand-rolled receive path so the equalizer stage can be swapped out.
double MeasureBer(EqMode eq_mode, int rounds, sim::Rng& rng) {
  const modem::FrameSpec spec;
  modem::AcousticModem modem(spec);
  const modem::PreambleDetector detector(spec);

  audio::ChannelConfig cfg;
  cfg.distance_m = 0.4;
  cfg.environment = audio::Environment::kOffice;
  cfg.propagation = audio::PropagationSpec::IndoorLos();
  audio::AcousticChannel channel(cfg, rng.Fork());
  const double volume = audio::SpeakerModel().VolumeForSpl(
      modem::ProbeTxSpl(45.0, protocol::kSnrMinDb, protocol::kSecureRangeM,
                        audio::kReferenceDistanceM) +
      protocol::kFramePaprDb);

  std::vector<std::size_t> data_bins = spec.plan.data;
  std::sort(data_bins.begin(), data_bins.end());
  std::vector<std::size_t> pilots = spec.plan.pilots;
  std::sort(pilots.begin(), pilots.end());
  const modem::PilotGeometry geometry(spec);
  dsp::Workspace& ws = dsp::Workspace::PerThread();

  std::size_t errors = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint8_t> bits(192);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
    const auto rx = channel.Transmit(tx.samples, volume);

    const auto det = detector.Detect(rx.recording);
    if (!det) {
      errors += bits.size() / 2;
      total += bits.size();
      continue;
    }
    const std::size_t symbols_start =
        det->preamble_start + spec.header_samples();
    std::vector<std::uint8_t> decoded;
    const std::size_t n_ofdm = tx.n_symbols;
    for (std::size_t s = 0; s < n_ofdm; ++s) {
      const std::size_t cp_start = symbols_start + s * spec.symbol_samples();
      modem::FineSyncResult sync =
          modem::FineSync(rx.recording, cp_start, spec, 48);
      if (sync.metric < 0.3) sync.offset = -16;
      const long body_start = static_cast<long>(cp_start) + sync.offset +
                              static_cast<long>(spec.cyclic_prefix_samples);
      if (body_start < 0 ||
          static_cast<std::size_t>(body_start) + spec.fft_size() >
              rx.recording.size()) {
        break;
      }
      audio::Samples body(rx.recording.begin() + body_start,
                          rx.recording.begin() + body_start +
                              static_cast<long>(spec.fft_size()));
      const auto spectrum = dsp::FftReal(body);

      std::vector<dsp::Complex> symbols;
      switch (eq_mode) {
        case EqMode::kFull: {
          const modem::ChannelView est =
              modem::EstimateChannelInto(geometry, spectrum, ws);
          const auto equalized =
              modem::EqualizeInto(est, spectrum, data_bins, ws);
          symbols.assign(equalized.begin(), equalized.end());
          break;
        }
        case EqMode::kNearestPilot: {
          for (std::size_t bin : data_bins) {
            std::size_t nearest = pilots[0];
            for (std::size_t p : pilots) {
              if (std::llabs(static_cast<long long>(p) -
                             static_cast<long long>(bin)) <
                  std::llabs(static_cast<long long>(nearest) -
                             static_cast<long long>(bin))) {
                nearest = p;
              }
            }
            const dsp::Complex h =
                spectrum[nearest] / modem::PilotValue(nearest);
            symbols.push_back(std::abs(h) > 1e-9 ? spectrum[bin] / h
                                                 : spectrum[bin]);
          }
          break;
        }
        case EqMode::kNone:
          for (std::size_t bin : data_bins) symbols.push_back(spectrum[bin]);
          break;
      }
      const auto chunk = modem::DemapSymbols(modem::Modulation::kQpsk, symbols);
      decoded.insert(decoded.end(), chunk.begin(), chunk.end());
    }
    if (decoded.size() < bits.size()) {
      errors += bits.size() / 2;
      total += bits.size();
      continue;
    }
    decoded.resize(bits.size());
    errors += modem::CountBitErrors(decoded, bits);
    total += bits.size();
  }
  return static_cast<double>(errors) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/6001);
  bench::Banner("Ablation: channel equalization (QPSK, office, 0.4 m)");
  const std::vector<std::pair<EqMode, std::string>> variants = {
      {EqMode::kFull, "full (FFT-interpolated pilots)"},
      {EqMode::kNearestPilot, "nearest pilot only"},
      {EqMode::kNone, "none (raw FFT)"}};
  const int rounds = options.Rounds(12);

  bench::SweepRunner runner(options);
  const auto bers =
      runner.Run(variants.size(), [&](sim::TaskContext& ctx) {
        return MeasureBer(variants[ctx.index].first, rounds, ctx.rng);
      });
  runner.PrintTiming("abl_equalizer");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    rows.push_back({variants[vi].second, bench::Fmt(bers[vi], 4)});
  }
  bench::PrintTable({"equalizer", "BER"}, rows);
  std::printf(
      "\nWithout equalization the speaker's phase ripple and the channel's\n"
      "linear phase rotate QPSK decisions arbitrarily; interpolation over\n"
      "the pilot comb recovers per-bin response between pilots.\n");
  return 0;
}
