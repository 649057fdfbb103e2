// modem_sweep: a Fig. 5-style loopback. Every modulation x white-noise
// SPL grid point builds one modem and one channel, then runs 192-bit
// frames through AcousticModem::Modulate -> AcousticChannel::Transmit ->
// AcousticModem::Demodulate on one thread. No protocol, event queue,
// executor or telemetry sink is involved.
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/medium.h"
#include "harness.h"
#include "modem/modem.h"
#include "obs/metrics.h"
#include "sim/executor.h"
#include "sim/rng.h"

namespace wlbench {
namespace {

using namespace wearlock;

constexpr std::size_t kFrameBits = 192;
constexpr int kFramesPerPoint = 12;
constexpr double kVolume = 0.5;
// The warm-up grid's seed: fixed, so set-up does the same work for
// every benchmark seed.
constexpr std::uint64_t kWarmSeed = 1;
const std::vector<double> kNoiseSpls = {35, 46, 53, 59, 65};

struct GridPoint {
  modem::Modulation modulation;
  double noise_spl = 0.0;
  std::uint64_t seed = 0;
};

std::vector<GridPoint> MakeGrid(std::uint64_t seed) {
  std::vector<GridPoint> grid;
  for (const modem::Modulation m : modem::AllModulations()) {
    for (const double spl : kNoiseSpls) {
      grid.push_back({m, spl,
                      sim::ParallelExecutor::TaskSeed(seed, grid.size())});
    }
  }
  return grid;
}

audio::ChannelConfig WhiteNoiseChannel(double spl) {
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::NoiseProfile white;
  white.spl_db = spl;
  white.lowpass_hz = 0.0;
  white.broadband_mix = 1.0;
  white.tone_mix = 0.0;
  cfg.custom_noise = white;
  return cfg;
}

struct PointResult {
  std::uint64_t bit_errors = 0;
  std::uint64_t bits = 0;
  std::uint64_t frames_found = 0;
  std::uint64_t samples = 0;
  std::vector<double> frame_ms;
};

/// One grid point; with a log, every call gets a span under `parent`.
PointResult RunPoint(const GridPoint& p, int frames, SpanLog* log,
                     long parent) {
  PointResult result;
  obs::MetricsRegistry registry;
  const obs::ScopedMetricsRegistry install(&registry);
  sim::Rng rng(p.seed);
  std::size_t span = log ? log->Begin("modem.setup", parent) : 0;
  const modem::AcousticModem modem;
  if (log) log->End(span);
  audio::AcousticChannel channel(WhiteNoiseChannel(p.noise_spl), rng.Fork());
  for (int f = 0; f < frames; ++f) {
    std::vector<std::uint8_t> bits(kFrameBits);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    const double t0 = NowMs();
    const std::size_t frame = log ? log->Begin("sweep.frame", parent) : 0;
    span = log ? log->Begin("modem.modulate", static_cast<long>(frame)) : 0;
    const modem::TxFrame tx = modem.Modulate(p.modulation, bits);
    if (log) {
      log->End(span);
      span = log->Begin("audio.channel_transmit", static_cast<long>(frame));
    }
    const audio::Reception rx = channel.Transmit(tx.samples, kVolume);
    if (log) {
      log->End(span);
      span = log->Begin("modem.demod", static_cast<long>(frame));
    }
    const auto demod = modem.Demodulate(rx.recording, p.modulation, bits.size());
    if (log) {
      log->End(span);
      AddNestedSync(registry, span, log);
      log->End(frame);
    }
    result.frame_ms.push_back(NowMs() - t0);
    result.samples += rx.recording.size();
    result.bits += bits.size();
    if (demod) {
      ++result.frames_found;
      result.bit_errors += modem::CountBitErrors(demod->bits, bits);
    } else {
      result.bit_errors += bits.size() / 2;  // undetected: coin-flip bits
    }
  }
  return result;
}

struct SweepRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t frames_found = 0;
  std::uint64_t samples = 0;
  WorkCounters counters;
  std::vector<double> frame_ms;
  /// Per-point BER, grid order.
  std::vector<double> ber;
  /// Per-point bit errors, grid order: the table repeats must match.
  std::vector<double> bit_errors;
  std::string error;
};

SweepRun RunSweepOnce(const std::vector<GridPoint>& grid, SpanLog* log,
                      int repeat) {
  SweepRun run;
  if (log) log->set_repeat(repeat);
  const WorkCounters before = WorkCounters::Now();
  const double cpu0 = ProcessCpuS();
  const double t0 = NowMs();
  const std::size_t sweep = log ? log->Begin("sweep") : 0;
  for (const GridPoint& p : grid) {
    const std::size_t point = log ? log->Begin("sweep.point", sweep) : 0;
    PointResult r;
    try {
      r = RunPoint(p, kFramesPerPoint, log, static_cast<long>(point));
    } catch (const std::exception& e) {
      if (run.error.empty()) run.error = e.what();
    }
    if (log) log->End(point);
    run.frames += kFramesPerPoint;
    run.frames_found += r.frames_found;
    run.samples += r.samples;
    run.frame_ms.insert(run.frame_ms.end(), r.frame_ms.begin(),
                        r.frame_ms.end());
    run.bit_errors.push_back(static_cast<double>(r.bit_errors));
    run.ber.push_back(r.bits > 0 ? static_cast<double>(r.bit_errors) /
                                       static_cast<double>(r.bits)
                                 : 1.0);
  }
  if (log) log->End(sweep);
  run.wall_s = (NowMs() - t0) / 1000.0;
  run.cpu_s = ProcessCpuS() - cpu0;
  run.counters = WorkCounters::Now() - before;
  return run;
}

std::string RunJson(const SweepRun& run, bool with_frames) {
  JsonObject o;
  o.Num("wall_s", run.wall_s)
      .Num("cpu_s", run.cpu_s)
      .Int("frames", run.frames)
      .Int("frames_found", run.frames_found)
      .Int("samples", run.samples)
      .Counters("counters", run.counters)
      .Nums("bit_errors", run.bit_errors)
      .Str("error", run.error);
  if (with_frames) o.Nums("frame_ms", run.frame_ms);
  return o.str();
}

/// Set-up: grid construction plus one warm-up frame per grid point.
/// Returns seconds.
double SetUp(const Options& options, std::vector<GridPoint>* grid) {
  const double t0 = NowMs();
  *grid = MakeGrid(options.seed);
  for (const GridPoint& p : MakeGrid(kWarmSeed)) {
    (void)RunPoint(p, /*frames=*/1, nullptr, SpanLog::kRoot);
  }
  return (NowMs() - t0) / 1000.0;
}

}  // namespace

int RunSweep(const Options& options, std::ostream& out) {
  std::vector<GridPoint> grid;
  // Set-up runs once before the first repeat and, on an untraced run,
  // again after every repeat: its median then samples the whole run, as
  // the repeats do, rather than the machine's speed in its first second.
  std::vector<double> setup_s = {SetUp(options, &grid)};

  std::vector<std::string> untraced;
  std::vector<std::string> traced;
  std::vector<double> ber;
  SpanLog log;
  const double start = NowMs();
  for (int repeat = 0;; ++repeat) {
    const SweepRun run = RunSweepOnce(grid, nullptr, repeat);
    if (repeat == 0) ber = run.ber;
    untraced.push_back(RunJson(run, /*with_frames=*/!options.trace));
    if (options.trace) {
      traced.push_back(RunJson(RunSweepOnce(grid, &log, repeat),
                               /*with_frames=*/false));
    } else {
      setup_s.push_back(SetUp(options, &grid));
    }
    const std::size_t min_repeats = options.trace ? 1 : 2;
    if (untraced.size() >= min_repeats &&
        (NowMs() - start) / 1000.0 >= options.seconds) {
      break;
    }
  }
  JsonObject raw;
  raw.Str("workload", options.workload)
      .Int("seed", options.seed)
      .Nums("setup_s", setup_s)
      .Int("grid_points", grid.size())
      .Nums("ber", ber)
      .Raw("repeats", JsonArray(untraced));
  if (options.trace) {
    raw.Raw("traced", JsonArray(traced));
    WriteSpans(options, log);
  }
  raw.Num("peak_rss_mb", PeakRssMb());
  out << raw.str() << "\n";
  return 0;
}

}  // namespace wlbench
