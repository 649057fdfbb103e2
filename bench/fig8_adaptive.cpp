// Figure 8: BER vs. distance with adaptive modulation enabled, under
// different MaxBER constraints (near-ultrasound).
//
// Each transmission first probes the channel; the controller then picks
// the highest-order mode whose measured requirement fits, so the
// realized BER stays under the constraint while eavesdroppers farther
// out see the signal collapse. The (distance x constraint) grid runs in
// parallel on bench::SweepRunner with per-cell seeding.
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "modem/modem.h"
#include "modem/snr.h"
#include "protocol/phone_controller.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

constexpr std::size_t kBits = 192;

struct Cell {
  double ber = 0.0;
  std::string mode = "-";
  int delivered = 0;
  int rounds = 0;
};

Cell Measure(double max_ber, double distance, int rounds, sim::Rng& rng) {
  modem::FrameSpec spec;
  spec.plan = modem::SubchannelPlan::NearUltrasound();
  modem::AcousticModem modem(spec);

  audio::ChannelConfig cfg;
  cfg.distance_m = distance;
  cfg.environment = audio::Environment::kOffice;
  cfg.microphone = audio::MicrophoneModel::Phone();
  audio::AcousticChannel channel(cfg, rng.Fork());
  const double volume = audio::SpeakerModel().VolumeForSpl(
      modem::ProbeTxSpl(45.0, protocol::kSnrMinDb, protocol::kSecureRangeM,
                        audio::kReferenceDistanceM) +
      protocol::kFramePaprDb);

  Cell cell;
  cell.rounds = rounds;
  std::size_t errors = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    // RTS/CTS probing phase.
    const auto probe_tx = modem.MakeProbeFrame();
    const auto probe_rx = channel.Transmit(probe_tx.samples, volume);
    const auto probe = modem.AnalyzeProbe(probe_rx.recording);
    if (!probe) {
      errors += kBits / 2;
      total += kBits;
      continue;
    }
    modem::AdaptiveConfig adaptive;
    adaptive.max_ber = max_ber;
    const auto mode =
        modem::SelectModeFromSnr(modem.spec(), probe->pilot_snr_db, adaptive);
    if (!mode) {
      // No mode can hold the constraint: transmission aborted. Count as
      // "no delivery", not as bit errors (the paper's adaptive plot only
      // shows delivered rounds).
      continue;
    }
    cell.mode = ToString(*mode);
    std::vector<std::uint8_t> bits(kBits);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const auto tx = modem.Modulate(*mode, bits);
    const auto rx = channel.Transmit(tx.samples, volume);
    const auto res = modem.Demodulate(rx.recording, *mode, bits.size());
    if (!res) {
      errors += bits.size() / 2;
      total += bits.size();
      continue;
    }
    errors += modem::CountBitErrors(res->bits, bits);
    total += bits.size();
    ++cell.delivered;
  }
  cell.ber = total > 0 ? static_cast<double>(errors) / static_cast<double>(total)
                       : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/777);
  bench::Banner(
      "Figure 8: BER vs distance, adaptive modulation under MaxBER "
      "constraints (near-ultrasound)");
  const std::vector<double> constraints =
      options.Trim(std::vector<double>{0.15, 0.10, 0.05});
  const std::vector<double> distances =
      options.Trim(std::vector<double>{0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0});
  const int rounds = options.Rounds(10);

  std::vector<std::string> header = {"distance(m)"};
  for (double c : constraints) {
    header.push_back(bench::Cat({"MaxBER=", bench::Fmt(c, 2)}));
  }

  bench::SweepRunner runner(options);
  const auto cells = runner.RunGrid(
      distances.size(), constraints.size(),
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        return Measure(constraints[point.col], distances[point.row], rounds,
                       rng);
      });
  runner.PrintTiming("fig8_adaptive");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t di = 0; di < distances.size(); ++di) {
    std::vector<std::string> row = {bench::Fmt(distances[di], 2)};
    for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
      const Cell& cell = cells[di * constraints.size() + ci];
      row.push_back(bench::Fmt(cell.ber, 4) + " (" + cell.mode + "," +
                    std::to_string(cell.delivered) + "/" +
                    std::to_string(cell.rounds) + ")");
    }
    rows.push_back(row);
  }
  bench::PrintTable(header, rows);
  std::printf(
      "\nPaper shape: with the constraint enforced, delivered rounds stay\n"
      "under MaxBER; tighter constraints force lower-order modes (or\n"
      "abort entirely) as distance grows.\n");
  return 0;
}
