// dsp::Fft / Ifft / FftInterpolateInto unit and property tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "dsp/fft.h"
#include "dsp/workspace.h"
#include "sim/rng.h"

namespace wearlock::dsp {
namespace {

constexpr double kTol = 1e-9;

TEST(FftBasics, PowerOfTwoPredicate) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(256));
  EXPECT_FALSE(IsPowerOfTwo(255));
}

TEST(FftBasics, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(255), 256u);
  EXPECT_EQ(NextPowerOfTwo(257), 512u);
}

TEST(FftBasics, NextPowerOfTwoRejectsUnrepresentableSizes) {
  // The doubling loop would wrap to 0 for n above 2^63; that must be a
  // loud contract violation, not a silent infinite loop or bogus size.
  const std::size_t top = std::size_t{1} << 63;
  EXPECT_EQ(NextPowerOfTwo(top), top);  // largest representable result
  EXPECT_THROW(NextPowerOfTwo(top + 1), std::invalid_argument);
  EXPECT_THROW(NextPowerOfTwo(std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
}

TEST(FftBasics, RejectsNonPowerOfTwo) {
  ComplexVec x(6, Complex(1.0, 0.0));
  EXPECT_THROW(Fft(x), std::invalid_argument);
  EXPECT_THROW(Ifft(x), std::invalid_argument);
}

TEST(FftBasics, DcSignal) {
  ComplexVec x(8, Complex(1.0, 0.0));
  Fft(x);
  EXPECT_NEAR(x[0].real(), 8.0, kTol);
  for (std::size_t k = 1; k < 8; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, kTol) << k;
  }
}

TEST(FftBasics, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  RealVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  }
  const ComplexVec spec = FftReal(x);
  EXPECT_NEAR(std::abs(spec[bin]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[n - bin]), n / 2.0, 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != bin && k != n - bin) {
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8) << k;
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  sim::Rng rng(GetParam());
  const std::size_t n = GetParam();
  ComplexVec x(n);
  for (auto& c : x) c = Complex(rng.Gaussian(), rng.Gaussian());
  ComplexVec y = x;
  Fft(y);
  Ifft(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  sim::Rng rng(GetParam() + 99);
  const std::size_t n = GetParam();
  ComplexVec x(n);
  for (auto& c : x) c = Complex(rng.Gaussian(), rng.Gaussian());
  double time_energy = 0.0;
  for (const auto& c : x) time_energy += std::norm(c);
  ComplexVec spec = x;
  Fft(spec);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-6 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 64, 256, 1024));

TEST(FftReal, HermitianSymmetry) {
  sim::Rng rng(5);
  RealVec x(128);
  for (auto& v : x) v = rng.Gaussian();
  const ComplexVec spec = FftReal(x);
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_NEAR(spec[k].real(), spec[128 - k].real(), 1e-9);
    EXPECT_NEAR(spec[k].imag(), -spec[128 - k].imag(), 1e-9);
  }
}

TEST(Ifft, InvertsFftReal) {
  sim::Rng rng(6);
  RealVec x(64);
  for (auto& v : x) v = rng.Gaussian();
  ComplexVec y = FftReal(x);
  Ifft(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i], 1e-9);
  }
}

TEST(FftInterpolateInto, PreservesOriginalSamplesOnIntegerUpsample) {
  // Band-limited interpolation must pass through the original points
  // when the ratio is an integer.
  const std::size_t m = 8, factor = 4;
  ComplexVec points(m);
  for (std::size_t i = 0; i < m; ++i) {
    points[i] = Complex(std::sin(0.7 * static_cast<double>(i)),
                        std::cos(0.3 * static_cast<double>(i)));
  }
  Workspace ws;
  const ComplexVec& dense = FftInterpolateInto(points, m * factor, ws);
  ASSERT_EQ(dense.size(), m * factor);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(dense[i * factor].real(), points[i].real(), 1e-9) << i;
    EXPECT_NEAR(dense[i * factor].imag(), points[i].imag(), 1e-9) << i;
  }
}

TEST(FftInterpolateInto, InterpolatesSmoothFunctionAccurately) {
  // Sample a slow complex exponential; the interpolant should track it.
  const std::size_t m = 16, out = 64;
  ComplexVec points(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double t = 2.0 * std::numbers::pi * static_cast<double>(i) /
                     static_cast<double>(m);
    points[i] = std::polar(1.0, std::sin(t));
  }
  Workspace ws;
  const ComplexVec& dense = FftInterpolateInto(points, out, ws);
  for (std::size_t j = 0; j < out; ++j) {
    const double t = 2.0 * std::numbers::pi * static_cast<double>(j) /
                     static_cast<double>(out);
    const Complex expected = std::polar(1.0, std::sin(t));
    EXPECT_NEAR(std::abs(dense[j] - expected), 0.0, 0.05) << j;
  }
}

TEST(FftInterpolateInto, ThrowsOnEmpty) {
  Workspace ws;
  EXPECT_THROW(FftInterpolateInto({}, 8, ws), std::invalid_argument);
}

TEST(FftInterpolateInto, NonPowerOfTwoSizesWork) {
  // Each transform picks its own path: both DFT (6 -> 18), plan then
  // DFT (8 -> 12), DFT then plan (6 -> 16), and a shrinking request.
  Workspace ws;
  const std::size_t shapes[][2] = {{6, 18}, {8, 12}, {6, 16}, {8, 6}};
  for (const auto& [m, out] : shapes) {
    const ComplexVec& dense =
        FftInterpolateInto(ComplexVec(m, Complex(2.0, 0.0)), out, ws);
    ASSERT_EQ(dense.size(), out);
    for (const auto& c : dense) {
      EXPECT_NEAR(c.real(), 2.0, 1e-9) << m << " -> " << out;
    }
  }
}

}  // namespace
}  // namespace wearlock::dsp
