// Figure 5: BER of different modulations vs. Eb/N0.
//
// Paper setup: quiet room (15-20 dB SPL), LOS, ambient noise controlled
// by an external speaker playing white noise; scatter points fitted with
// logarithmic trend lines; the MaxBER bound and per-mode minimum Eb/N0
// thresholds are read off this figure.
//
// Here: the channel's white-noise SPL sweeps a wide range; Eb/N0 is the
// modem's own pilot-SNR-based estimate (Eq. 3), exactly what the adaptive
// controller consumes at runtime. The (modulation x noise) grid runs on
// bench::SweepRunner: every cell is an independent task seeded from its
// grid index, so the table is byte-identical for any --threads value.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>  // NOLINT(banned-api): std::bad_alloc, not an allocation
#include <optional>
#include <vector>

#include "audio/medium.h"
#include "bench_util.h"
#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "dsp/stats.h"
#include "dsp/workspace.h"
#include "modem/modem.h"
#include "modem/snr.h"
#include "sim/rng.h"

namespace {

// Heap blocks of at least kLargeAllocBytes the process has asked for,
// and the ones asked for inside a frame (modulate, transmit, demodulate)
// with the frames counted. The replaced operator new below feeds them.
constexpr std::size_t kLargeAllocBytes = 16 * 1024;
// A warmed-up frame allocates only what the public API hands back: the
// modulated frame and the channel's recording.
constexpr std::uint64_t kMaxLargeAllocsPerFrame = 2;
std::atomic<std::uint64_t> g_large_allocs{0};
std::atomic<std::uint64_t> g_frame_large_allocs{0};
std::atomic<std::uint64_t> g_frames{0};

}  // namespace

// Counts, then forwards to malloc, so sanitizers still see every block.
// operator new[] and the nothrow forms call this one in libstdc++. GCC
// pairs a new expression with free() once the delete below is inlined
// and warns of a mismatch; here new is malloc, so the pair is right.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {  // NOLINT(banned-api): counting allocator
  if (n >= kLargeAllocBytes) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }  // NOLINT(banned-api): pairs with the counting new
void operator delete(void* p, std::size_t) noexcept { std::free(p); }  // NOLINT(banned-api): pairs with the counting new
#pragma GCC diagnostic pop

namespace {

using namespace wearlock;

/// Frame-loop share of the allocation gate: adds the large blocks one
/// frame asked for (every thread's, so exact at --threads 1).
class FrameAllocScope {
 public:
  FrameAllocScope() : before_(g_large_allocs.load(std::memory_order_relaxed)) {}
  ~FrameAllocScope() {
    g_frame_large_allocs.fetch_add(
        g_large_allocs.load(std::memory_order_relaxed) - before_,
        std::memory_order_relaxed);
    g_frames.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::uint64_t before_;
};

struct Point {
  double ebn0_db = 0.0;
  double ber = 0.0;
};

constexpr std::size_t kBitsPerRound = 192;

std::optional<Point> MeasurePoint(modem::Modulation m, double noise_spl,
                                  int rounds, sim::Rng& rng) {
  modem::AcousticModem modem;
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::NoiseProfile white;
  white.spl_db = noise_spl;
  white.lowpass_hz = 0.0;       // unshaped white noise
  white.broadband_mix = 1.0;
  white.tone_mix = 0.0;
  cfg.custom_noise = white;
  audio::AcousticChannel channel(cfg, rng.Fork());

  std::size_t errors = 0, total = 0;
  double psnr_acc = 0.0;
  int psnr_n = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint8_t> bits(kBitsPerRound);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
    std::optional<modem::DemodResult> res;
    {
      const FrameAllocScope frame;
      const auto tx = modem.Modulate(m, bits);
      const auto rx = channel.Transmit(tx.samples, 0.5);
      res = modem.Demodulate(rx.recording, m, bits.size());
    }
    if (!res) {
      errors += bits.size() / 2;  // undetected frame ~ coin-flip bits
      total += bits.size();
      continue;
    }
    errors += modem::CountBitErrors(res->bits, bits);
    total += bits.size();
    psnr_acc += res->mean_pilot_snr_db;
    ++psnr_n;
  }
  if (psnr_n == 0) return std::nullopt;
  const double snr_db = psnr_acc / psnr_n;
  return Point{modem::EbN0Db(modem.spec(), m, snr_db),
               total > 0
                   ? static_cast<double>(errors) / static_cast<double>(total)
                   : 1.0};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/1234);
  bench::Banner("Figure 5: BER vs Eb/N0 per modulation (white-noise channel)");
  const std::vector<double> noise_spls =
      options.Trim(std::vector<double>{20, 35, 42, 46, 50, 53,
                                       56, 59, 62, 65, 68});
  const std::vector<modem::Modulation>& modulations = modem::AllModulations();
  const int rounds = options.Rounds(12);

  // One task per (modulation, noise) cell, row-major over modulations.
  bench::SweepRunner runner(options);

  // Untimed warm-up: one point per modulation primes every worker
  // thread's dsp::Workspace slots, the shared FFT plan cache and the
  // preamble spectrum cache. The timed sweep below must then hold all
  // three counters flat - at --threads 1 (where one worker runs every
  // point, so warm-up coverage is exact) any delta is a hot-path
  // allocation regression and fails the bench.
  runner.WarmUp(modulations.size(), [&](sim::TaskContext& ctx) {
    return MeasurePoint(modulations[ctx.index], noise_spls.front(),
                        /*rounds=*/1, ctx.rng)
        .has_value();
  });
  const std::uint64_t misses_before = dsp::PlanCache::Shared().misses();
  const std::uint64_t growths_before = dsp::Workspace::TotalGrowths();
  const std::uint64_t spectra_before = dsp::SpectrumCache::Shared().misses();
  const std::uint64_t frame_allocs_before = g_frame_large_allocs.load();
  const std::uint64_t frames_before = g_frames.load();

  const auto cells = runner.RunGrid(
      modulations.size(), noise_spls.size(),
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        return MeasurePoint(modulations[point.row], noise_spls[point.col],
                            rounds, rng);
      });
  runner.PrintTiming("fig5_ber_ebn0");

  const std::uint64_t miss_delta =
      dsp::PlanCache::Shared().misses() - misses_before;
  const std::uint64_t growth_delta =
      dsp::Workspace::TotalGrowths() - growths_before;
  const std::uint64_t spectrum_delta =
      dsp::SpectrumCache::Shared().misses() - spectra_before;
  const std::uint64_t frames = g_frames.load() - frames_before;
  const std::uint64_t frame_allocs =
      g_frame_large_allocs.load() - frame_allocs_before;
  std::fprintf(stderr,
               "[alloc] steady-state sweep: %llu plan-cache misses, %llu "
               "workspace growths, %llu spectrum-cache misses (plan cache: "
               "%llu hits / %llu misses lifetime); %.2f allocations of "
               ">= %zu KiB per frame (%llu frames)\n",
               static_cast<unsigned long long>(miss_delta),
               static_cast<unsigned long long>(growth_delta),
               static_cast<unsigned long long>(spectrum_delta),
               static_cast<unsigned long long>(dsp::PlanCache::Shared().hits()),
               static_cast<unsigned long long>(
                   dsp::PlanCache::Shared().misses()),
               frames > 0 ? static_cast<double>(frame_allocs) /
                                static_cast<double>(frames)
                          : 0.0,
               kLargeAllocBytes / 1024, static_cast<unsigned long long>(frames));
  if (runner.thread_count() == 1 &&
      (miss_delta != 0 || growth_delta != 0 || spectrum_delta != 0)) {
    std::fprintf(stderr,
                 "[alloc] FAIL: hot path allocated after warm-up "
                 "(zero-allocation steady state violated)\n");
    return 1;
  }
  if (runner.thread_count() == 1 &&
      frame_allocs > kMaxLargeAllocsPerFrame * frames) {
    std::fprintf(stderr,
                 "[alloc] FAIL: a frame allocates more than %llu large "
                 "blocks (the buffers the modem and channel hand back)\n",
                 static_cast<unsigned long long>(kMaxLargeAllocsPerFrame));
    return 1;
  }

  std::vector<std::vector<std::string>> rows;
  for (std::size_t mi = 0; mi < modulations.size(); ++mi) {
    std::vector<std::string> row = {ToString(modulations[mi])};
    std::vector<double> xs, ys;
    for (std::size_t ni = 0; ni < noise_spls.size(); ++ni) {
      const auto& cell = cells[mi * noise_spls.size() + ni];
      if (!cell) continue;
      row.push_back(bench::Fmt(cell->ebn0_db, 1) + "dB:" +
                    bench::Fmt(cell->ber, 4));
      if (cell->ber > 0.0 && cell->ebn0_db > 0.0) {
        xs.push_back(cell->ebn0_db);
        ys.push_back(std::log10(cell->ber));
      }
    }
    rows.push_back(row);
    if (xs.size() >= 2) {
      // The paper's "logarithmic tread-line" fit, for reference.
      const auto fit = dsp::FitLinear(xs, ys);
      std::printf("%-6s log10(BER) ~= %.3f * EbN0_dB + %.2f (R^2=%.2f)\n",
                  ToString(modulations[mi]).c_str(), fit.slope, fit.intercept,
                  fit.r_squared);
    }
  }
  std::vector<std::string> full_header = {"Modulation"};
  for (double n : noise_spls) {
    full_header.push_back(bench::Cat({"n", bench::Fmt(n, 0)}));
  }
  bench::PrintTable(full_header, rows);

  std::printf(
      "\nPaper shape: BER falls with Eb/N0; order (best->worst): "
      "BASK,QASK,BPSK,QPSK,8PSK,16QAM; 16QAM unusable on real hardware.\n"
      "Markers: MaxBER=0.1 line determines each mode's minimum Eb/N0.\n");
  return 0;
}
