// dsp::SpectrumCache and the preamble detector's cached correlation:
// every cached spectrum is bit-identical to a fresh transform, each key
// is built once even under contention (a TSan target; ci.sh runs this
// binary under ThreadSanitizer with WEARLOCK_THREADS=8), and Detect()
// and Scores() give the uncached correlation's exact values at both FFT
// sizes the modem runs them at, for both subchannel plans.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "modem/detector.h"
#include "modem/frame.h"
#include "sim/rng.h"

namespace wearlock {
namespace {

modem::FrameSpec SpecFor(bool near_ultrasound) {
  modem::FrameSpec spec;
  if (near_ultrasound) spec.plan = modem::SubchannelPlan::NearUltrasound();
  return spec;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool SameBits(std::span<const dsp::Complex> a, std::span<const dsp::Complex> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(SpectrumCache, ConcurrentGetBuildsEachKeyOnceWithFreshBits) {
  // 8 threads fetch the Audible and NearUltrasound preamble spectra at
  // the two correlation sizes; every fetch must equal a fresh transform
  // and point at the one shared entry.
  struct Key {
    audio::Samples preamble;
    std::size_t n;
    dsp::ComplexVec fresh;
  };
  std::vector<Key> keys;
  for (const bool near_ultrasound : {false, true}) {
    for (const std::size_t n : {8192u, 16384u}) {
      Key key{modem::MakePreamble(SpecFor(near_ultrasound)), n,
              dsp::ComplexVec(n, dsp::Complex(0.0, 0.0))};
      for (std::size_t i = 0; i < key.preamble.size(); ++i) {
        key.fresh[i] = dsp::Complex(key.preamble[i], 0.0);
      }
      dsp::PlanCache::Shared().Get(n)->Forward(key.fresh.data());
      keys.push_back(std::move(key));
    }
  }

  dsp::SpectrumCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 10;
  std::vector<std::vector<const dsp::Complex*>> seen(kThreads);
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const Key& key : keys) {
          const auto plan = dsp::PlanCache::Shared().Get(key.n);
          const std::span<const dsp::Complex> got =
              cache.Get(key.preamble, *plan);
          mismatches[t] += !SameBits(got, key.fresh);
          if (round == 0) seen[t].push_back(got.data());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(cache.misses(), 4u);  // one build per (preamble, size), ever
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kRounds * keys.size());
}

TEST(SpectrumCache, KeysOnExactSampleBits) {
  dsp::SpectrumCache cache;
  const auto plan = dsp::PlanCache::Shared().Get(16);
  const std::vector<double> a = {1.0, 0.0, -2.0};
  const std::vector<double> b = {1.0, -0.0, -2.0};  // equal, not the same bits
  const std::span<const dsp::Complex> first = cache.Get(a, *plan);
  EXPECT_EQ(cache.Get(a, *plan).data(), first.data());
  EXPECT_NE(cache.Get(b, *plan).data(), first.data());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// A quiet recording with the preamble `at` samples in.
audio::Samples RecordingWithPreamble(const audio::Samples& preamble,
                                     std::size_t length, std::size_t at,
                                     std::uint64_t seed) {
  sim::Rng rng(seed);
  audio::Samples x = rng.GaussianVector(length, 1e-4);
  for (std::size_t i = 0; i < preamble.size(); ++i) {
    x[at + i] += 0.2 * preamble[i];
  }
  return x;
}

TEST(PreambleDetectorCache, ScoresEqualTheUncachedCorrelation) {
  for (const bool near_ultrasound : {false, true}) {
    const modem::FrameSpec spec = SpecFor(near_ultrasound);
    const audio::Samples preamble = modem::MakePreamble(spec);
    const modem::PreambleDetector detector(spec);
    // 6000 + 256 samples correlate at n = 8192, 12000 + 256 at 16384.
    for (const std::size_t length : {6000u, 12000u}) {
      const audio::Samples x =
          RecordingWithPreamble(preamble, length, length / 2, length);
      EXPECT_TRUE(SameBits(detector.Scores(x),
                           dsp::NormalizedCrossCorrelate(x, preamble)))
          << "near_ultrasound=" << near_ultrasound << " length=" << length;
    }
  }
}

TEST(PreambleDetectorCache, DetectEqualsTheUncachedPeak) {
  for (const bool near_ultrasound : {false, true}) {
    const modem::FrameSpec spec = SpecFor(near_ultrasound);
    const audio::Samples preamble = modem::MakePreamble(spec);
    const modem::PreambleDetector detector(spec);
    // The search region runs from just before the gate opens at the
    // preamble: about 4.7k samples (n = 8192) and 10.2k (n = 16384).
    for (const std::size_t length : {9000u, 20000u}) {
      const audio::Samples x =
          RecordingWithPreamble(preamble, length, length / 2, length + 1);
      const auto d = detector.Detect(x);
      ASSERT_TRUE(d.has_value()) << "length=" << length;
      const std::span<const double> region =
          std::span<const double>(x).subspan(d->search_begin);
      EXPECT_EQ(dsp::NextPowerOfTwo(region.size() + preamble.size()),
                length == 9000u ? 8192u : 16384u);
      const dsp::PeakResult peak =
          dsp::FindPeak(dsp::NormalizedCrossCorrelate(region, preamble));
      EXPECT_EQ(d->preamble_start, d->search_begin + peak.index);
      EXPECT_TRUE(SameBits(std::span<const double>(&d->score, 1),
                           std::span<const double>(&peak.score, 1)));
    }
  }
}

}  // namespace
}  // namespace wearlock
