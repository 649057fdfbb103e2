// Constellation map/demap properties across every modulation scheme.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "modem/constellation.h"
#include "sim/rng.h"

namespace wearlock::modem {
namespace {

class PerModulation : public ::testing::TestWithParam<Modulation> {};

TEST_P(PerModulation, UnitAverageEnergy) {
  const Constellation& c = Constellation::Get(GetParam());
  double energy = 0.0;
  for (const auto& p : c.points()) energy += std::norm(p);
  EXPECT_NEAR(energy / static_cast<double>(c.size()), 1.0, 1e-9);
}

TEST_P(PerModulation, MapDemapIsIdentity) {
  const Constellation& c = Constellation::Get(GetParam());
  for (unsigned s = 0; s < c.size(); ++s) {
    EXPECT_EQ(c.Demap(c.Map(s)), s) << ToString(GetParam()) << " sym " << s;
  }
}

TEST_P(PerModulation, PointsAreDistinct) {
  const Constellation& c = Constellation::Get(GetParam());
  for (unsigned i = 0; i < c.size(); ++i) {
    for (unsigned j = i + 1; j < c.size(); ++j) {
      EXPECT_GT(std::abs(c.Map(i) - c.Map(j)), 1e-6)
          << ToString(GetParam()) << " " << i << "," << j;
    }
  }
}

TEST_P(PerModulation, DemapSurvivesSmallPerturbation) {
  const Constellation& c = Constellation::Get(GetParam());
  // Perturb by a third of the minimum half-distance: decisions hold.
  double min_d = 1e9;
  for (unsigned i = 0; i < c.size(); ++i) {
    for (unsigned j = i + 1; j < c.size(); ++j) {
      min_d = std::min(min_d, std::abs(c.Map(i) - c.Map(j)));
    }
  }
  const double eps = min_d / 6.0;
  for (unsigned s = 0; s < c.size(); ++s) {
    EXPECT_EQ(c.Demap(c.Map(s) + Complex(eps, -eps * 0.5)), s);
  }
}

TEST_P(PerModulation, BitsRoundTripThroughSymbols) {
  sim::Rng rng(77);
  std::vector<std::uint8_t> bits(5 * BitsPerSymbol(GetParam()));
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto symbols = MapBits(GetParam(), bits);
  const auto back = DemapSymbols(GetParam(), symbols);
  ASSERT_GE(back.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(back[i], bits[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(All, PerModulation,
                         ::testing::ValuesIn(AllModulations()),
                         [](const auto& info) { return ToString(info.param); });

TEST(Constellation, BitsPerSymbolTable) {
  EXPECT_EQ(BitsPerSymbol(Modulation::kBask), 1u);
  EXPECT_EQ(BitsPerSymbol(Modulation::kBpsk), 1u);
  EXPECT_EQ(BitsPerSymbol(Modulation::kQask), 2u);
  EXPECT_EQ(BitsPerSymbol(Modulation::kQpsk), 2u);
  EXPECT_EQ(BitsPerSymbol(Modulation::k8Psk), 3u);
  EXPECT_EQ(BitsPerSymbol(Modulation::k16Qam), 4u);
}

TEST(Constellation, GrayCodingAdjacent8PskPointsDifferInOneBit) {
  const Constellation& c = Constellation::Get(Modulation::k8Psk);
  // Sort points by angle; adjacent labels must have Hamming distance 1.
  std::vector<std::pair<double, unsigned>> by_angle;
  for (unsigned s = 0; s < 8; ++s) {
    by_angle.emplace_back(std::arg(c.Map(s)), s);
  }
  std::sort(by_angle.begin(), by_angle.end());
  for (std::size_t i = 0; i < 8; ++i) {
    const unsigned a = by_angle[i].second;
    const unsigned b = by_angle[(i + 1) % 8].second;
    EXPECT_EQ(__builtin_popcount(a ^ b), 1) << a << " vs " << b;
  }
}

TEST(Constellation, GrayCodingQask) {
  const Constellation& c = Constellation::Get(Modulation::kQask);
  std::vector<std::pair<double, unsigned>> by_amp;
  for (unsigned s = 0; s < 4; ++s) by_amp.emplace_back(c.Map(s).real(), s);
  std::sort(by_amp.begin(), by_amp.end());
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_EQ(__builtin_popcount(by_amp[i].second ^ by_amp[i + 1].second), 1);
  }
}

TEST(Constellation, MapBitsPadsTail) {
  // 3 bits into QPSK (2 bits/symbol) -> 2 symbols, last padded with 0.
  const auto symbols = MapBits(Modulation::kQpsk, {1, 0, 1});
  EXPECT_EQ(symbols.size(), 2u);
  const auto bits = DemapSymbols(Modulation::kQpsk, symbols);
  EXPECT_EQ(bits.size(), 4u);
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[1], 0);
  EXPECT_EQ(bits[2], 1);
  EXPECT_EQ(bits[3], 0);
}

TEST(Constellation, ErrorsApi) {
  EXPECT_THROW(Constellation::Get(Modulation::kQpsk).Map(4), std::out_of_range);
  EXPECT_THROW(CountBitErrors({1}, {1, 0}), std::invalid_argument);
  EXPECT_EQ(CountBitErrors({1, 0, 1}, {1, 1, 1}), 1u);
  EXPECT_NEAR(BitErrorRate({1, 0, 1, 0}, {1, 1, 1, 1}), 0.5, 1e-12);
  EXPECT_EQ(BitErrorRate({}, {}), 0.0);
}

}  // namespace
}  // namespace wearlock::modem
