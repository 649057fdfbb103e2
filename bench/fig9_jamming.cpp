// Figure 9: BER per round under tone jamming, with and without
// sub-channel selection (QPSK, audible band, 15 cm).
//
// Paper setup: an external tone generator (Audacity, at most 6 mono
// tracks) jams randomly chosen sub-channels each round; with selection
// enabled the modem re-plans data bins around the interference and the
// BER stays flat.
//
// Rounds are independent experiments (each draws its own jammed bins and
// its own channel), so they fan out across bench::SweepRunner - one task
// per round, seeded from the round index.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "dsp/stats.h"
#include "modem/modem.h"
#include "modem/snr.h"
#include "protocol/phone_controller.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

constexpr std::size_t kBits = 192;

struct RoundResult {
  std::vector<std::size_t> jammed;
  double ber_with = 0.0;
  double ber_without = 0.0;
};

RoundResult RunRound(sim::Rng& rng) {
  const modem::FrameSpec base_spec;  // audible plan
  const modem::AcousticModem base_modem(base_spec);

  audio::ChannelConfig cfg;
  cfg.distance_m = 0.15;
  cfg.environment = audio::Environment::kOffice;
  audio::AcousticChannel channel(cfg, rng.Fork());
  const double volume = audio::SpeakerModel().VolumeForSpl(
      modem::ProbeTxSpl(45.0, protocol::kSnrMinDb, protocol::kSecureRangeM,
                        audio::kReferenceDistanceM) +
      protocol::kFramePaprDb);

  RoundResult result;
  // Jam up to 6 random bins inside the audible data band.
  const std::size_t n_tones = 2 + rng.UniformInt(0, 4);
  while (result.jammed.size() < n_tones) {
    const std::size_t bin = 8 + rng.UniformInt(0, 26);  // bins 8..34
    if (std::find(result.jammed.begin(), result.jammed.end(), bin) ==
        result.jammed.end()) {
      result.jammed.push_back(bin);
    }
  }
  channel.SetJammer(audio::ToneJammer(result.jammed, base_spec.fft_size(),
                                      /*spl_db=*/62.0));

  for (bool selection : {true, false}) {
    modem::AcousticModem modem = base_modem;
    if (selection) {
      // Probe, rank noise, re-plan.
      const auto probe_tx = modem.MakeProbeFrame();
      const auto probe_rx = channel.Transmit(probe_tx.samples, volume);
      const auto probe = modem.AnalyzeProbe(probe_rx.recording);
      if (probe) {
        modem = modem.WithSelectedSubchannels(probe->noise_power);
      }
    }
    std::vector<std::uint8_t> bits(kBits);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
    const auto rx = channel.Transmit(tx.samples, volume);
    const auto res =
        modem.Demodulate(rx.recording, modem::Modulation::kQpsk, bits.size());
    const double ber = res ? modem::BitErrorRate(res->bits, bits) : 0.5;
    (selection ? result.ber_with : result.ber_without) = ber;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/31337);
  bench::Banner(
      "Figure 9: BER under jamming, with vs without sub-channel selection "
      "(QPSK, audible, 15 cm)");

  const std::size_t rounds = options.quick ? 2 : 16;

  bench::SweepRunner runner(options);
  const auto results = runner.Run(rounds, [&](sim::TaskContext& ctx) {
    return RunRound(ctx.rng);
  });
  runner.PrintTiming("fig9_jamming");

  std::vector<std::string> header = {"round", "jammed bins", "BER (selection)",
                                     "BER (no selection)"};
  std::vector<std::vector<std::string>> rows;
  std::vector<double> with_sel, without_sel;
  for (std::size_t round = 0; round < results.size(); ++round) {
    const RoundResult& result = results[round];
    with_sel.push_back(result.ber_with);
    without_sel.push_back(result.ber_without);
    std::string bins;
    for (std::size_t b : result.jammed) bins += std::to_string(b) + " ";
    rows.push_back({std::to_string(round + 1), bins,
                    bench::Fmt(result.ber_with, 4),
                    bench::Fmt(result.ber_without, 4)});
  }
  bench::PrintTable(header, rows);

  const auto s_with = dsp::Summarize(with_sel);
  const auto s_without = dsp::Summarize(without_sel);
  std::printf(
      "\nmean BER with selection: %.4f   without: %.4f\n"
      "Paper shape: selection holds BER low and stable across rounds while\n"
      "the unselected modem spikes whenever tones land on its data bins.\n",
      s_with.mean, s_without.mean);
  return 0;
}
