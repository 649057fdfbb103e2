// Unit tests for the non-FFT DSP substrate: windows, chirps,
// correlation, filters, fractional delay, SPL math, statistics, Hilbert.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <span>
#include <vector>

#include "dsp/chirp.h"
#include "dsp/correlate.h"
#include "dsp/filter.h"
#include "dsp/hilbert.h"
#include "dsp/resample.h"
#include "dsp/spl.h"
#include "dsp/stats.h"
#include "dsp/window.h"
#include "dsp/workspace.h"
#include "sim/rng.h"

namespace wearlock::dsp {
namespace {

/// The textbook direct-form correlation r[k] = sum_n x[n+k] * y[n] over
/// the valid lags: the reference the FFT correlation is checked against.
std::vector<double> DirectCrossCorrelate(std::span<const double> x,
                                         std::span<const double> y) {
  std::vector<double> r(x.size() - y.size() + 1, 0.0);
  for (std::size_t k = 0; k < r.size(); ++k) {
    for (std::size_t n = 0; n < y.size(); ++n) r[k] += x[k + n] * y[n];
  }
  return r;
}

/// Raw FFT correlation of x against y over the valid lags.
std::vector<double> FftCrossCorrelate(std::span<const double> x,
                                      std::span<const double> y) {
  std::vector<double> r(x.size() - y.size() + 1);
  CrossCorrelateFftInto(x, y, Workspace::PerThread(), r);
  return r;
}

/// Steady-state gain of `filter` for a unit tone at f_hz (44.1 kHz):
/// the output's peak once the start-up transient has died away.
template <typename Filter>
double ToneGain(Filter filter, double f_hz) {
  std::vector<double> tone(8192);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * f_hz * static_cast<double>(i) /
                       44100.0);
  }
  filter.ProcessBlock(tone);
  double peak = 0.0;
  for (std::size_t i = 4096; i < tone.size(); ++i) {
    peak = std::max(peak, std::abs(tone[i]));
  }
  return peak;
}

// ---------------------------------------------------------------- window
TEST(Window, HannEndpointsAndPeak) {
  const auto w = MakeWindow(WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, RectangularIsAllOnes) {
  for (double v : MakeWindow(WindowType::kRectangular, 9)) {
    EXPECT_EQ(v, 1.0);
  }
}

TEST(Window, DegenerateSizes) {
  EXPECT_TRUE(MakeWindow(WindowType::kHann, 0).empty());
  EXPECT_EQ(MakeWindow(WindowType::kBlackman, 1).size(), 1u);
  EXPECT_EQ(MakeWindow(WindowType::kBlackman, 1)[0], 1.0);
}

TEST(Window, ApplyWindowSizeMismatchThrows) {
  std::vector<double> x(4, 1.0);
  EXPECT_THROW(ApplyWindow(x, MakeWindow(WindowType::kHann, 5)),
               std::invalid_argument);
}

TEST(Window, EdgeFadeRampsBothEnds) {
  std::vector<double> x(10, 1.0);
  ApplyEdgeFade(x, 2);
  EXPECT_LT(x[0], x[1]);
  EXPECT_LT(x[9], x[8]);
  EXPECT_EQ(x[5], 1.0);
}

TEST(Window, FadeInOnlyTouchesHead) {
  std::vector<double> x(10, 1.0);
  ApplyFadeIn(x, 4);
  EXPECT_LT(x[0], 0.1);
  EXPECT_EQ(x[9], 1.0);
}

// ----------------------------------------------------------------- chirp
TEST(Chirp, LengthAmplitudeAndValidation) {
  ChirpSpec spec;
  spec.length_samples = 256;
  const auto c = MakeChirp(spec);
  EXPECT_EQ(c.size(), 256u);
  double peak = 0.0;
  for (double v : c) peak = std::max(peak, std::abs(v));
  EXPECT_LE(peak, 1.0 + 1e-9);
  EXPECT_GT(peak, 0.5);

  ChirpSpec bad = spec;
  bad.f_max_hz = bad.f_min_hz - 1.0;
  EXPECT_THROW(MakeChirp(bad), std::invalid_argument);
  bad = spec;
  bad.length_samples = 0;
  EXPECT_THROW(MakeChirp(bad), std::invalid_argument);
}

TEST(Chirp, AutocorrelationIsPeaky) {
  ChirpSpec spec;
  spec.length_samples = 256;
  const auto c = MakeChirp(spec);
  // Embed in silence and correlate.
  std::vector<double> x(1024, 0.0);
  for (std::size_t i = 0; i < c.size(); ++i) x[300 + i] = c[i];
  const auto scores = NormalizedCrossCorrelate(x, c);
  const auto peak = FindPeak(scores);
  EXPECT_EQ(peak.index, 300u);
  EXPECT_GT(peak.score, 0.99);
  // Sidelobes well below the main peak.
  for (std::size_t k = 0; k < scores.size(); ++k) {
    if (k + 16 < peak.index || k > peak.index + 16) {
      EXPECT_LT(std::abs(scores[k]), 0.5) << k;
    }
  }
}

// ------------------------------------------------------------- correlate
TEST(Correlate, DirectMatchesFft) {
  sim::Rng rng(17);
  std::vector<double> x(300), y(64);
  for (auto& v : x) v = rng.Gaussian();
  for (auto& v : y) v = rng.Gaussian();
  const auto direct = DirectCrossCorrelate(x, y);
  const auto fast = FftCrossCorrelate(x, y);
  ASSERT_EQ(direct.size(), fast.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], fast[i], 1e-6) << i;
  }
}

TEST(Correlate, NormalizedScoresBounded) {
  sim::Rng rng(18);
  std::vector<double> x(512), y(32);
  for (auto& v : x) v = rng.Gaussian();
  for (auto& v : y) v = rng.Gaussian();
  for (double s : NormalizedCrossCorrelate(x, y)) {
    EXPECT_LE(std::abs(s), 1.0 + 1e-9);
  }
}

TEST(Correlate, SelfMatchScoresOne) {
  sim::Rng rng(19);
  std::vector<double> y(64);
  for (auto& v : y) v = rng.Gaussian();
  const auto scores = NormalizedCrossCorrelate(y, y);
  EXPECT_NEAR(scores[0], 1.0, 1e-9);
}

TEST(Correlate, ArgumentValidation) {
  std::vector<double> x(4, 1.0);
  EXPECT_THROW(NormalizedCrossCorrelate(x, {}), std::invalid_argument);
  EXPECT_THROW(NormalizedCrossCorrelate(x, std::vector<double>(5, 1.0)),
               std::invalid_argument);
  std::vector<double> wrong_size(2);
  EXPECT_THROW(CrossCorrelateFftInto(x, std::vector<double>(2, 1.0),
                                     Workspace::PerThread(), wrong_size),
               std::invalid_argument);
  EXPECT_THROW(FindPeak({}), std::invalid_argument);
}

// ---------------------------------------------------------------- filter
TEST(Filter, LowPassAttenuatesHighPassesLow) {
  const auto lpf = Biquad::LowPass(1000.0, 44100.0);
  EXPECT_NEAR(ToneGain(lpf, 50.0), 1.0, 0.02);
  EXPECT_NEAR(ToneGain(lpf, 1000.0), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_LT(ToneGain(lpf, 8000.0), 0.05);
}

TEST(Filter, HighPassMirrorsLowPass) {
  const auto hpf = Biquad::HighPass(1000.0, 44100.0);
  EXPECT_LT(ToneGain(hpf, 50.0), 0.01);
  EXPECT_NEAR(ToneGain(hpf, 10000.0), 1.0, 0.05);
}

TEST(Filter, ButterworthCascadeSteeperThanSingle) {
  const auto single = BiquadCascade::ButterworthLowPass(6200.0, 44100.0, 1);
  const auto fourth = BiquadCascade::ButterworthLowPass(6200.0, 44100.0, 2);
  EXPECT_LT(ToneGain(fourth, 12000.0), ToneGain(single, 12000.0));
  // Both are ~ -3 dB at cutoff.
  EXPECT_NEAR(ToneGain(fourth, 6200.0), 1.0 / std::sqrt(2.0), 0.05);
}

TEST(Filter, InvalidFrequenciesThrow) {
  EXPECT_THROW(Biquad::LowPass(0.0, 44100.0), std::invalid_argument);
  EXPECT_THROW(Biquad::LowPass(23000.0, 44100.0), std::invalid_argument);
  EXPECT_THROW(BiquadCascade::ButterworthLowPass(100.0, 44100.0, 0),
               std::invalid_argument);
}

TEST(Filter, ConvolveLengthsAndIdentity) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> delta = {1.0};
  EXPECT_EQ(Convolve(x, delta), x);
  const auto y = Convolve(x, {0.0, 1.0});
  ASSERT_EQ(y.size(), 4u);
  EXPECT_EQ(y[1], 1.0);
  EXPECT_EQ(y[3], 3.0);
  EXPECT_TRUE(Convolve({}, x).empty());
}

// The direct form as an input-stationary scatter: each nonzero input
// adds its products to every output it reaches. Convolve's direct path
// computes the same sums output by output; this is the reference it must
// match bit for bit.
std::vector<double> ScatterConvolve(const std::vector<double>& x,
                                    const std::vector<double>& h) {
  std::vector<double> y(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) continue;
    for (std::size_t j = 0; j < h.size(); ++j) y[i + j] += x[i] * h[j];
  }
  return y;
}

TEST(Filter, DirectConvolutionMatchesTheScatterFormBitForBit) {
  sim::Rng rng(31);
  // Random values with zero runs: a silent lead-in, gaps, isolated zeros
  // (some -0.0, which the scatter form skips like +0.0) and a silent tail.
  auto signal = [&rng](std::size_t n) {
    std::vector<double> x = rng.GaussianVector(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < n / 6 || (i / 29) % 5 == 2 || i + n / 9 >= n) x[i] = 0.0;
      if (i % 41 == 0) x[i] = -0.0;
    }
    return x;
  };
  auto check = [](const std::vector<double>& x, const std::vector<double>& h) {
    const std::vector<double> got = Convolve(x, h);
    const std::vector<double> want = ScatterConvolve(x, h);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "signal " << x.size() << " kernel " << h.size();
  };
  // Every kernel length 1..700 against a short signal, whose outputs take
  // both the sixteen-wide step and the scalar tail.
  const std::vector<double> short_x = signal(45);
  for (std::size_t taps = 1; taps <= 700; ++taps) {
    std::vector<double> h = rng.GaussianVector(taps);
    if (taps > 2) h[taps / 2] = -0.0;
    check(short_x, h);
  }
  // Longer signals up to the transform threshold (2 047 samples with any
  // kernel; longer ones with kernels under 64 taps), including the
  // speaker's 663-tap ringing tail against a 1 664-sample frame.
  for (const std::size_t n : {1u, 2u, 16u, 17u, 300u, 1664u, 2047u}) {
    for (const std::size_t taps : {1u, 15u, 63u, 64u, 333u, 663u}) {
      check(signal(n), rng.GaussianVector(taps, 0.1));
    }
  }
  for (const std::size_t taps : {1u, 2u, 31u, 63u}) {
    check(signal(5000), rng.GaussianVector(taps));
  }
  check(std::vector<double>(900, 0.0), rng.GaussianVector(40));
  check(std::vector<double>(900, -0.0), rng.GaussianVector(40));
  // A probe-shaped frame (256 samples, a 1 024-sample guard, 384 more)
  // against the ringing-length kernel, and gaps of 15, 16 and 17 zeros
  // every 40 samples: more stretches than the kernel tracks one by one.
  std::vector<double> frame = rng.GaussianVector(1664);
  std::fill(frame.begin() + 256, frame.begin() + 1280, 0.0);
  check(frame, rng.GaussianVector(663));
  for (const std::size_t gap : {15u, 16u, 17u}) {
    std::vector<double> gappy = rng.GaussianVector(2000);
    for (std::size_t i = 0; i < gappy.size(); ++i) {
      if (i % 40 < gap) gappy[i] = i % 3 == 0 ? -0.0 : 0.0;
    }
    for (const std::size_t taps : {1u, 16u, 17u, 100u, 700u}) {
      check(gappy, rng.GaussianVector(taps));
    }
  }
}

// -------------------------------------------------------------- resample
TEST(Resample, IntegerDelayShifts) {
  const std::vector<double> x = {1.0, -1.0, 0.5};
  const auto y = DelayInteger(x, 3);
  ASSERT_EQ(y.size(), 6u);
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[3], 1.0);
  EXPECT_EQ(y[5], 0.5);
}

TEST(Resample, FractionalDelayMovesCorrelationPeak) {
  ChirpSpec spec;
  spec.length_samples = 256;
  const auto c = MakeChirp(spec);
  std::vector<double> x(1024, 0.0);
  for (std::size_t i = 0; i < c.size(); ++i) x[100 + i] = c[i];
  const auto delayed = DelayFractional(x, 37.5);
  const auto scores = FftCrossCorrelate(delayed, c);
  const auto peak = FindPeak(scores);
  // 100 + 37.5 -> peak at 137 or 138.
  EXPECT_GE(peak.index, 137u);
  EXPECT_LE(peak.index, 138u);
}

TEST(Resample, FractionalDelayPreservesEnergy) {
  sim::Rng rng(23);
  std::vector<double> x(512);
  for (auto& v : x) v = rng.Gaussian();
  const auto y = DelayFractional(x, 10.25);
  EXPECT_NEAR(Rms(y) * std::sqrt(static_cast<double>(y.size())),
              Rms(x) * std::sqrt(static_cast<double>(x.size())),
              0.05 * Rms(x) * std::sqrt(static_cast<double>(x.size())));
}

// DelayFractional as an input-stationary scatter: each nonzero input adds
// its products to the `taps` outputs it reaches. The library computes
// the same sums output by output; this is the reference it must match
// bit for bit.
std::vector<double> ScatterDelayFractional(const std::vector<double>& x,
                                           double delay_samples,
                                           std::size_t taps) {
  const std::size_t whole = static_cast<std::size_t>(delay_samples);
  const double frac = delay_samples - static_cast<double>(whole);
  if (frac < 1e-12) {
    std::vector<double> y(x.size() + whole, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) y[i + whole] = x[i];
    return y;
  }
  const double pi = std::numbers::pi;
  const std::size_t half = taps / 2;
  std::vector<double> h(taps);
  double norm = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double n = static_cast<double>(i) - static_cast<double>(half) - frac;
    const double w =
        0.5 - 0.5 * std::cos(2.0 * pi * (static_cast<double>(i) + 0.5) /
                             static_cast<double>(taps));
    const double sinc =
        std::abs(n) < 1e-12 ? 1.0 : std::sin(pi * n) / (pi * n);
    h[i] = sinc * w;
    norm += h[i];
  }
  if (std::abs(norm) > 1e-12) {
    for (double& v : h) v /= norm;
  }
  std::vector<double> shifted(x.size() + taps - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) continue;
    for (std::size_t j = 0; j < taps; ++j) shifted[i + j] += x[i] * h[j];
  }
  std::vector<double> y(x.size() + whole + 1, 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const long long src = static_cast<long long>(i + half) -
                          static_cast<long long>(whole);
    if (src >= 0 && static_cast<std::size_t>(src) < shifted.size()) {
      y[i] = shifted[static_cast<std::size_t>(src)];
    }
  }
  return y;
}

TEST(Resample, FractionalDelayMatchesTheScatterFormBitForBit) {
  sim::Rng rng(29);
  // Random signals with zero runs: a silent lead-in, guard-interval
  // gaps, isolated zeros (some -0.0) and a silent tail.
  auto signal = [&rng](std::size_t n) {
    std::vector<double> x = rng.GaussianVector(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < n / 5 || (i / 37) % 4 == 1 || i + n / 10 >= n) x[i] = 0.0;
      if (i % 53 == 0) x[i] = -0.0;
    }
    return x;
  };
  const double delays[] = {0.0,  7.0,         38.55, 0.25, 3.999999,
                           12.5, 5.0 + 1e-13, 1.0 - 1e-13, 200.75};
  for (const std::size_t taps : {1u, 3u, 33u}) {
    for (const std::size_t n : {1u, 7u, 40u, 1000u}) {
      const std::vector<double> x = signal(n);
      for (const double delay : delays) {
        const std::vector<double> got = DelayFractional(x, delay, taps);
        const std::vector<double> want = ScatterDelayFractional(x, delay, taps);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "taps=" << taps << " n=" << n << " delay=" << delay;
      }
    }
  }
}

TEST(Resample, Validation) {
  const std::vector<double> x(8, 1.0);
  EXPECT_THROW(DelayFractional(x, -1.0), std::invalid_argument);
  EXPECT_THROW(DelayFractional(x, 1.5, 0), std::invalid_argument);
  EXPECT_THROW(DelayFractional(x, 1.5, 4), std::invalid_argument);
}

// ------------------------------------------------------------------- spl
TEST(Spl, FullScaleSineIsNear94Db) {
  std::vector<double> tone(4410);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 1000.0 *
                       static_cast<double>(i) / 44100.0);
  }
  EXPECT_NEAR(SplOf(tone), 94.0, 0.2);
}

TEST(Spl, RoundTripRmsSpl) {
  for (double spl : {10.0, 40.0, 94.0}) {
    EXPECT_NEAR(SplFromRms(RmsFromSpl(spl)), spl, 1e-9);
  }
}

TEST(Spl, SpreadingLossSixDbPerDoubling) {
  EXPECT_NEAR(SpreadingLossDb(0.2, 0.1), 6.02, 0.01);
  EXPECT_NEAR(SpreadingLossDb(0.4, 0.1), 12.04, 0.01);
  EXPECT_THROW(SpreadingLossDb(0.0, 0.1), std::invalid_argument);
}

TEST(Spl, EbN0Conversions) {
  // B == R: Eb/N0 equals SNR.
  EXPECT_NEAR(EbN0FromSnrDb(10.0, 1000.0, 1000.0), 10.0, 1e-12);
  // Double bandwidth: +3 dB.
  EXPECT_NEAR(EbN0FromSnrDb(10.0, 2000.0, 1000.0), 13.01, 0.01);
  EXPECT_NEAR(EbN0FromSnrDb(7.0, 5000.0, 2756.0),
              7.0 + 10.0 * std::log10(5000.0 / 2756.0), 1e-12);
  EXPECT_THROW(EbN0FromSnrDb(10.0, 0.0, 1.0), std::invalid_argument);
}

// ----------------------------------------------------------------- stats
TEST(Stats, SummaryBasics) {
  const auto s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(s.mean, 2.5, 1e-12);
  EXPECT_NEAR(s.median, 2.5, 1e-12);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.count, 4u);
  EXPECT_THROW(Summarize({}), std::invalid_argument);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  const auto fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

// --------------------------------------------------------------- hilbert
TEST(Hilbert, AnalyticSignalEnvelopeOfTone) {
  std::vector<double> tone(1024);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = 0.7 * std::sin(2.0 * std::numbers::pi * 2000.0 *
                             static_cast<double>(i) / 44100.0);
  }
  const auto analytic = AnalyticSignal(tone);
  // Envelope ~ constant 0.7 away from the edges.
  for (std::size_t i = 100; i + 100 < analytic.size(); ++i) {
    EXPECT_NEAR(std::abs(analytic[i]), 0.7, 0.03) << i;
  }
}

TEST(Hilbert, ZeroRotationIsIdentity) {
  sim::Rng rng(4);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.Gaussian();
  const auto y = RotatePhase(x, std::vector<double>(x.size(), 0.0));
  for (std::size_t i = 8; i + 8 < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-6);
  }
}

TEST(Hilbert, RotationPreservesEnvelope) {
  std::vector<double> tone(1024);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 3000.0 *
                       static_cast<double>(i) / 44100.0);
  }
  const auto rotated = RotatePhase(tone, std::vector<double>(tone.size(), 0.5));
  const auto analytic = AnalyticSignal(rotated);
  for (std::size_t i = 100; i + 100 < analytic.size(); ++i) {
    EXPECT_NEAR(std::abs(analytic[i]), 1.0, 0.05);
  }
}

TEST(Hilbert, RotatePhaseSizeMismatchThrows) {
  EXPECT_THROW(RotatePhase({1.0, 2.0}, std::vector<double>{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wearlock::dsp
