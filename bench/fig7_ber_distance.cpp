// Figure 7: BER vs. distance per transmission mode (near-ultrasound,
// office room, LOS) - the communication-range experiment. The paper's
// point: by constraining MaxBER, the signal is unusable past ~1 m.
//
// The near-ultrasound 15-20 kHz band models the phone-phone pair (the
// watch's 7 kHz low-pass rules it out for phone-watch), so the receiver
// here uses a full-band phone microphone.
//
// The (distance x mode) grid runs on bench::SweepRunner; the
// thread_determinism test diffs the stdout of --threads 1 vs --threads 8
// runs to pin the determinism contract.
#include <cstdio>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "modem/modem.h"
#include "protocol/phone_controller.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

constexpr std::size_t kBits = 192;

double MeasureBer(modem::Modulation m, double distance, int rounds,
                  sim::Rng& rng) {
  modem::FrameSpec spec;
  spec.plan = modem::SubchannelPlan::NearUltrasound();
  modem::AcousticModem modem(spec);

  audio::ChannelConfig cfg;
  cfg.distance_m = distance;
  cfg.environment = audio::Environment::kOffice;
  cfg.microphone = audio::MicrophoneModel::Phone();  // phone-phone pair
  audio::AcousticChannel channel(cfg, rng.Fork());

  // Fixed volume tuned for ~1 m delivery in an office (the paper holds
  // settings constant across this sweep).
  const double volume = audio::SpeakerModel().VolumeForSpl(
      modem::ProbeTxSpl(45.0, protocol::kSnrMinDb, protocol::kSecureRangeM,
                        audio::kReferenceDistanceM) +
      protocol::kFramePaprDb);

  std::size_t errors = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint8_t> bits(kBits);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const auto tx = modem.Modulate(m, bits);
    const auto rx = channel.Transmit(tx.samples, volume);
    const auto res = modem.Demodulate(rx.recording, m, bits.size());
    if (!res) {
      errors += bits.size() / 2;  // lost frame ~ random bits
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
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/555);
  bench::Banner(
      "Figure 7: BER vs distance per transmission mode (near-ultrasound)");
  const std::vector<double> distances =
      options.Trim(std::vector<double>{0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0});
  const std::vector<modem::Modulation>& modes = modem::WearlockModes();
  const int rounds = options.Rounds(10);

  std::vector<std::string> header = {"distance(m)"};
  for (auto m : modes) header.push_back(ToString(m));

  bench::SweepRunner runner(options);
  const auto bers = runner.RunGrid(
      distances.size(), modes.size(),
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        return MeasureBer(modes[point.col], distances[point.row], rounds, rng);
      });
  runner.PrintTiming("fig7_ber_distance");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t di = 0; di < distances.size(); ++di) {
    std::vector<std::string> row = {bench::Fmt(distances[di], 2)};
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      row.push_back(bench::Fmt(bers[di * modes.size() + mi], 4));
    }
    rows.push_back(row);
  }
  bench::PrintTable(header, rows);
  std::printf(
      "\nPaper shape: BER grows with distance; higher-order modes (8PSK)\n"
      "degrade first, so a MaxBER bound caps the usable range near 1 m.\n");
  return 0;
}
