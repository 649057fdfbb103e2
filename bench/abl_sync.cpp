// Ablation: cyclic-prefix fine synchronization.
//
// The paper's two-step sync (coarse chirp correlation + CP window
// search, Eq. 2) exists because the coarse peak alone is off by the
// fractional propagation delay and speaker group delay. This bench
// disables the fine step (search range 0) and measures the BER penalty
// across distances. The (distance x variant) grid runs on
// bench::SweepRunner.
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "modem/modem.h"
#include "protocol/phone_controller.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

double MeasureBer(long fine_range, double distance, bool blocked, int rounds,
                  sim::Rng& rng) {
  modem::AcousticModem modem(modem::FrameSpec{}, fine_range);

  audio::ChannelConfig cfg;
  cfg.distance_m = distance;
  cfg.environment = audio::Environment::kOffice;
  // Mild multipath makes sync genuinely matter.
  cfg.propagation = blocked ? audio::PropagationSpec::BodyBlockedNlos()
                            : audio::PropagationSpec::IndoorLos();
  audio::AcousticChannel channel(cfg, rng.Fork());
  const double volume = audio::SpeakerModel().VolumeForSpl(
      modem::ProbeTxSpl(45.0, protocol::kSnrMinDb, protocol::kSecureRangeM,
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
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/4001);
  bench::Banner("Ablation: CP fine synchronization (QPSK, office, LOS)");
  const std::vector<double> distances =
      options.Trim(std::vector<double>{0.2, 0.5, 1.0});
  // Columns: (fine_range, blocked) variants, in table order.
  struct Variant {
    long fine_range;
    bool blocked;
  };
  const std::vector<Variant> variants = {
      {48, false}, {0, false}, {48, true}, {0, true}};
  const int rounds = options.Rounds(12);

  bench::SweepRunner runner(options);
  const auto bers = runner.RunGrid(
      distances.size(), variants.size(),
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        const Variant& v = variants[point.col];
        return MeasureBer(v.fine_range, distances[point.row], v.blocked,
                          rounds, rng);
      });
  runner.PrintTiming("abl_sync");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t di = 0; di < distances.size(); ++di) {
    std::vector<std::string> row = {bench::Fmt(distances[di], 1)};
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      row.push_back(bench::Fmt(bers[di * variants.size() + vi], 4));
    }
    rows.push_back(row);
  }
  bench::PrintTable({"distance(m)", "LOS fine", "LOS coarse", "blocked fine",
                     "blocked coarse"},
                    rows);
  std::printf(
      "\nIn clean LOS the coarse chirp peak plus a fixed back-off into the\n"
      "CP is already near-optimal; the fine search earns its keep when the\n"
      "direct path is blocked and the coarse peak locks onto a late\n"
      "reflection tens of samples off.\n");
  return 0;
}
