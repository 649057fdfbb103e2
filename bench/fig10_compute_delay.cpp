// Figure 10: computation delay of each processing phase on each device
// (Nexus 6, Galaxy Nexus, Moto 360), >= 20 repetitions.
//
// Phases, as the paper breaks them down:
//   phase-1 channel-probing processing (probe analysis: preamble search,
//     noise ranking, SNR, NLOS),
//   phase-2 pre-processing (silence gate + preamble detection + sync),
//   phase-2 demodulation (FFT, channel estimation, equalization,
//     de-mapping).
#include <cstdio>

#include "audio/medium.h"
#include "bench_util.h"
#include "modem/detector.h"
#include "obs/metrics.h"
#include "sim/device.h"
#include "modem/modem.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

/// Run `kernel` `reps` times under a private metrics registry and return
/// the median of the host-ms series the modem's own instrumentation
/// recorded.
template <typename Kernel>
sim::Millis MeasureKernel(const std::string& series, int reps,
                          Kernel&& kernel) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry install(&registry);
  for (int i = 0; i < reps; ++i) kernel();
  return bench::SeriesSummary(registry, series).median;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/1010);
  const int kReps = options.quick ? 3 : 20;
  bench::Banner("Figure 10: computation delay per phase per device (20 reps)");

  sim::Rng rng(1010);
  modem::AcousticModem modem;
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::AcousticChannel channel(cfg, rng.Fork());

  // One representative probe and one data reception.
  const auto probe_rx = channel.Transmit(modem.MakeProbeFrame().samples, 0.3);
  std::vector<std::uint8_t> bits(32, 1);
  const auto data_tx = modem.Modulate(modem::Modulation::kQpsk, bits);
  const auto data_rx = channel.Transmit(data_tx.samples, 0.3);
  const modem::PreambleDetector detector(modem.spec());

  const sim::Millis probe_host = MeasureKernel(
      "modem.probe_analysis.host_ms", kReps,
      [&] { (void)modem.AnalyzeProbe(probe_rx.recording); });
  const sim::Millis preproc_host =
      MeasureKernel("modem.sync.host_ms", kReps,
                    [&] { (void)detector.Detect(data_rx.recording); });
  const sim::Millis demod_host =
      MeasureKernel("modem.demod.host_ms", kReps, [&] {
        (void)modem.Demodulate(data_rx.recording, modem::Modulation::kQpsk,
                               bits.size());
      });
  // The demodulator runs detection internally; isolate the post-sync part.
  const sim::Millis demod_only_host =
      std::max(demod_host - preproc_host, 0.05 * demod_host);

  const std::vector<sim::DeviceProfile> devices = {
      sim::DeviceProfile::Nexus6(), sim::DeviceProfile::GalaxyNexus(),
      sim::DeviceProfile::Moto360()};

  std::vector<std::vector<std::string>> rows;
  for (const auto& device : devices) {
    rows.push_back({device.name,
                    bench::Fmt(device.ScaleCompute(probe_host), 1),
                    bench::Fmt(device.ScaleCompute(preproc_host), 1),
                    bench::Fmt(device.ScaleCompute(demod_only_host), 1),
                    bench::Fmt(device.ScaleCompute(probe_host + preproc_host +
                                                   demod_only_host),
                               1)});
  }
  bench::PrintTable({"device", "phase1 probing(ms)", "phase2 preproc(ms)",
                     "phase2 demod(ms)", "total(ms)"},
                    rows);
  std::printf(
      "\n(host kernel medians: probe %.2f ms, preproc %.2f ms, demod %.2f ms)\n"
      "Paper shape: Moto 360 is roughly an order of magnitude slower than\n"
      "the phones; the probing correlator dominates the compute budget.\n",
      probe_host, preproc_host, demod_only_host);
  return 0;
}
