// google-benchmark microbenchmarks of the DSP kernels that dominate the
// unlock pipeline - the performance-regression harness behind the
// Fig. 6/10/12 compute-cost modeling (those figures scale *measured*
// kernel times by device profiles, so kernel regressions shift them).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "audio/medium.h"
#include "audio/speaker.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/resample.h"
#include "modem/detector.h"
#include "modem/modem.h"
#include "sensors/dtw.h"
#include "sensors/motion_sim.h"
#include "sim/rng.h"

namespace {
using namespace wearlock;

void BM_Fft(benchmark::State& state) {
  // One planned transform of size range(0); range(1) = 1 runs Inverse()
  // (with its 1/N). Each iteration restores the input first, so values
  // never drift into overflow or subnormals.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool inverse = state.range(1) != 0;
  sim::Rng rng(1);
  dsp::ComplexVec x(n);
  for (auto& c : x) c = dsp::Complex(rng.Gaussian(), rng.Gaussian());
  dsp::ComplexVec buf(n);
  const auto plan = dsp::PlanCache::Shared().Get(n);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), buf.begin());
    if (inverse) {
      plan->Inverse(buf.data());
    } else {
      plan->Forward(buf.data());
    }
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void FftArgs(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {256, 4096, 8192, 16384, 65536}) {
    b->Args({n, 0});
    b->Args({n, 1});
  }
}
BENCHMARK(BM_Fft)->Apply(FftArgs);

void BM_SpeakerEmit(benchmark::State& state) {
  // SpeakerModel::Emit on a drive shaped like the fleet's 1 664- and
  // 2 432-sample frames (256 samples, a 1 024-sample silent guard, then
  // the rest): rise envelope, the 663-tap ringing convolution (direct
  // form below 2 048 samples, the transform path from there) and the
  // phase ripple at n = 4 096.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(10);
  std::vector<double> x = rng.GaussianVector(n, 0.3);
  std::fill(x.begin() + 256, x.begin() + 1280, 0.0);
  const audio::SpeakerModel speaker;
  for (auto _ : state) {
    auto y = speaker.Emit(x, 0.5);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpeakerEmit)->Arg(1664)->Arg(2432);

void BM_PreambleCorrelation(benchmark::State& state) {
  // The sliding normalized correlator over a typical recording length -
  // the paper's dominant watch-side cost.
  sim::Rng rng(2);
  const auto recording = rng.GaussianVector(static_cast<std::size_t>(state.range(0)));
  const modem::FrameSpec spec;
  const auto preamble = modem::MakePreamble(spec);
  for (auto _ : state) {
    auto scores = dsp::NormalizedCrossCorrelate(recording, preamble);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_PreambleCorrelation)->Arg(8192)->Arg(16384);

void BM_PreambleDetect(benchmark::State& state) {
  // PreambleDetector::Detect on a recording with the preamble after a
  // quiet lead-in: the energy gate, then the correlation against the
  // cached preamble spectrum (BM_PreambleCorrelation transforms the
  // template on every call).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  auto recording = rng.GaussianVector(n, 1e-4);
  const modem::FrameSpec spec;
  const auto preamble = modem::MakePreamble(spec);
  for (std::size_t i = 0; i < preamble.size(); ++i) {
    recording[n / 3 + i] += 0.1 * preamble[i];
  }
  const modem::PreambleDetector detector(spec);
  for (auto _ : state) {
    auto detection = detector.Detect(recording);
    benchmark::DoNotOptimize(detection);
  }
}
BENCHMARK(BM_PreambleDetect)->Arg(9000);

void BM_GaussianVector(benchmark::State& state) {
  // Bulk normal draws: every noise source, mic self-noise and phase
  // jitter render of the simulated world.
  sim::Rng rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto v = rng.GaussianVector(n, 0.5);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianVector)->Arg(8192);

void BM_SkipGaussians(benchmark::State& state) {
  // The same draws consumed without their values: the phone mic's
  // self-noise under an emission, and white noise's zero-weight shaped
  // component.
  sim::Rng rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rng.SkipGaussians(n);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkipGaussians)->Arg(8192);

void BM_DelayFractional(benchmark::State& state) {
  // One propagation path: a 38.55-sample windowed-sinc delay (33 taps)
  // of a signal that starts with a silent lead-in.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(9);
  std::vector<double> x = rng.GaussianVector(n);
  std::fill(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n / 8), 0.0);
  for (auto _ : state) {
    auto y = dsp::DelayFractional(x, 38.55, 33);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DelayFractional)->Arg(8192);

void BM_FullDemodulation(benchmark::State& state) {
  sim::Rng rng(3);
  modem::AcousticModem modem;
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::AcousticChannel channel(cfg, rng.Fork());
  std::vector<std::uint8_t> bits(32, 1);
  const auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
  const auto rx = channel.Transmit(tx.samples, 0.3);
  for (auto _ : state) {
    auto result = modem.Demodulate(rx.recording, modem::Modulation::kQpsk, 32);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullDemodulation);

void BM_ProbeAnalysis(benchmark::State& state) {
  sim::Rng rng(4);
  modem::AcousticModem modem;
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::AcousticChannel channel(cfg, rng.Fork());
  const auto rx = channel.Transmit(modem.MakeProbeFrame().samples, 0.3);
  for (auto _ : state) {
    auto probe = modem.AnalyzeProbe(rx.recording);
    benchmark::DoNotOptimize(probe);
  }
}
BENCHMARK(BM_ProbeAnalysis);

void BM_DtwFilter(benchmark::State& state) {
  sensors::MotionSimulator sim(sim::Rng(5));
  const auto pair = sim.CoLocatedPair(sensors::Activity::kWalking,
                                      static_cast<std::size_t>(state.range(0)));
  const auto a = sensors::Preprocess(pair.phone);
  const auto b = sensors::Preprocess(pair.watch);
  for (auto _ : state) {
    auto r = sensors::Dtw(a, b);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DtwFilter)->Arg(50)->Arg(100)->Arg(150);

void BM_Modulation(benchmark::State& state) {
  sim::Rng rng(6);
  modem::AcousticModem modem;
  std::vector<std::uint8_t> bits(32);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  for (auto _ : state) {
    auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
    benchmark::DoNotOptimize(tx.samples.data());
  }
}
BENCHMARK(BM_Modulation);

}  // namespace

BENCHMARK_MAIN();
