// Ablation: soft-decision vs hard-decision channel decoding.
//
// With the same coded transmissions, soft decoding (LLRs summed by the
// repetition decoder / maximum-likelihood over Hamming codewords) buys
// the classic ~1.5-2 dB over hard-slicing each bit before decoding -
// effectively extending the usable range of a coded link.
// The (code x noise) grid runs on bench::SweepRunner.
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "modem/coding.h"
#include "modem/modem.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

struct Pair {
  double hard = 0.0;
  double soft = 0.0;
};

Pair Measure(modem::CodeScheme code, double noise_spl, int rounds,
             sim::Rng& rng) {
  modem::AcousticModem modem;
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::NoiseProfile& white = cfg.custom_noise.emplace();
  white.spl_db = noise_spl;
  white.lowpass_hz = 0.0;
  white.broadband_mix = 1.0;
  white.tone_mix = 0.0;
  audio::AcousticChannel channel(cfg, rng.Fork());

  Pair result;
  std::size_t hard_err = 0, soft_err = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint8_t> payload(96);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const auto coded = modem::Encode(code, payload);
    const auto tx = modem.Modulate(modem::Modulation::kQpsk, coded);
    const auto rx = channel.Transmit(tx.samples, 0.5);

    const auto demod = modem.Demodulate(rx.recording, modem::Modulation::kQpsk,
                                        coded.size(), /*with_llrs=*/true);
    total += payload.size();
    if (!demod) {
      hard_err += payload.size() / 2;
      soft_err += payload.size() / 2;
      continue;
    }
    const auto hard_payload = modem::Decode(code, demod->bits);
    const auto soft_payload = modem::DecodeSoft(code, demod->llrs);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      if (i >= hard_payload.size() || (hard_payload[i] & 1) != payload[i]) {
        ++hard_err;
      }
      if (i >= soft_payload.size() || (soft_payload[i] & 1) != payload[i]) {
        ++soft_err;
      }
    }
  }
  result.hard = static_cast<double>(hard_err) / static_cast<double>(total);
  result.soft = static_cast<double>(soft_err) / static_cast<double>(total);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/12000);
  bench::Banner("Ablation: soft vs hard decoding (QPSK, white-noise sweep)");
  const std::vector<modem::CodeScheme> codes = options.Trim(
      std::vector<modem::CodeScheme>{modem::CodeScheme::kHamming74,
                                     modem::CodeScheme::kRepetition3});
  const std::vector<double> noises =
      options.Trim(std::vector<double>{52.0, 56.0, 59.0, 62.0});
  const int rounds = options.Rounds(12);

  bench::SweepRunner runner(options);
  const auto cells = runner.RunGrid(
      codes.size(), noises.size(),
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        return Measure(codes[point.row], noises[point.col], rounds, rng);
      });
  runner.PrintTiming("abl_soft_decision");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t ci = 0; ci < codes.size(); ++ci) {
    for (std::size_t ni = 0; ni < noises.size(); ++ni) {
      const Pair& p = cells[ci * noises.size() + ni];
      rows.push_back({ToString(codes[ci]), bench::Fmt(noises[ni], 0) + " dB",
                      bench::Fmt(p.hard, 4), bench::Fmt(p.soft, 4)});
    }
  }
  bench::PrintTable({"code", "noise SPL", "hard-decision BER",
                     "soft-decision BER"},
                    rows);
  std::printf(
      "\nSoft decoding uses the equalized symbols' reliability instead of\n"
      "throwing it away at the slicer; the gain is largest right at the\n"
      "edge of the code's working region - i.e. at WearLock's secure-range\n"
      "boundary.\n");
  return 0;
}
