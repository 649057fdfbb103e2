// Ablation: cyclic-prefix length under multipath.
//
// The paper fixes Tg = 128 samples (2.9 ms) to exceed the speaker's
// reverberation tail and cover indoor delay spread. This bench sweeps
// the CP length against a body-blocked NLOS channel whose late
// reflections arrive several ms after the (suppressed) direct path.
// The (CP length x propagation) grid runs on bench::SweepRunner.
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "modem/modem.h"
#include "protocol/phone_controller.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

double MeasureBer(std::size_t cp_samples, bool nlos, int rounds,
                  sim::Rng& rng) {
  modem::FrameSpec spec;
  spec.cyclic_prefix_samples = cp_samples;
  modem::AcousticModem modem(spec);

  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  cfg.environment = audio::Environment::kQuietRoom;
  cfg.propagation = nlos ? audio::PropagationSpec::BodyBlockedNlos()
                         : audio::PropagationSpec::IndoorLos();
  audio::AcousticChannel channel(cfg, rng.Fork());
  const double volume = audio::SpeakerModel().VolumeForSpl(
      modem::ProbeTxSpl(17.0, protocol::kSnrMinDb, protocol::kSecureRangeM,
                        audio::kReferenceDistanceM) +
      protocol::kFramePaprDb);

  std::size_t errors = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint8_t> bits(192);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
    const auto rx = channel.Transmit(tx.samples, volume);
    const auto res =
        modem.Demodulate(rx.recording, modem::Modulation::kQpsk, bits.size());
    if (!res) {
      errors += bits.size() / 2;
      total += bits.size();
      continue;
    }
    errors += modem::CountBitErrors(res->bits, bits);
    total += bits.size();
  }
  return static_cast<double>(errors) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/8001);
  bench::Banner(
      "Ablation: cyclic-prefix length vs multipath (QPSK, quiet room)");
  const std::vector<std::size_t> cp_lengths =
      options.Trim(std::vector<std::size_t>{8, 32, 64, 128, 192});
  const int rounds = options.Rounds(12);

  bench::SweepRunner runner(options);
  const auto bers = runner.RunGrid(
      cp_lengths.size(), /*n_cols=*/2,
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        return MeasureBer(cp_lengths[point.row], /*nlos=*/point.col == 1,
                          rounds, rng);
      });
  runner.PrintTiming("abl_cp_length");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t ci = 0; ci < cp_lengths.size(); ++ci) {
    const std::size_t cp = cp_lengths[ci];
    rows.push_back(
        {std::to_string(cp) + " (" + bench::Fmt(cp / 44.1, 2) + " ms)",
         bench::Fmt(bers[ci * 2 + 0], 4), bench::Fmt(bers[ci * 2 + 1], 4)});
  }
  bench::PrintTable({"CP length", "BER LOS", "BER body-blocked NLOS"}, rows);
  std::printf(
      "\nShort prefixes leave the speaker's ringing tail and the NLOS\n"
      "reflections smearing into the FFT window (ISI); the paper's 128\n"
      "samples (~2.9 ms) covers both with margin. Longer CPs only cost\n"
      "airtime (rate = |D| log2 M / (Tg + Ts)).\n");
  return 0;
}
