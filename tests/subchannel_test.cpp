// Sub-channel plan defaults and the noise-ranked selection of §III-7.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "modem/subchannel.h"

namespace wearlock::modem {
namespace {

TEST(SubchannelPlan, PaperDefaultsAudible) {
  const auto plan = SubchannelPlan::Audible();
  const std::vector<std::size_t> expected_data = {16, 17, 18, 20, 21, 22,
                                                  24, 25, 26, 28, 29, 30};
  const std::vector<std::size_t> expected_pilots = {7, 11, 15, 19,
                                                    23, 27, 31, 35};
  EXPECT_EQ(plan.data, expected_data);
  EXPECT_EQ(plan.pilots, expected_pilots);
  EXPECT_EQ(plan.fft_size, 256u);
  // ~172 Hz bins.
  EXPECT_NEAR(plan.bin_hz(), 172.27, 0.01);
  // The audible band sits in 1-6 kHz.
  EXPECT_GT(plan.FrequencyOfBin(plan.pilots.front()), 1000.0);
  EXPECT_LT(plan.FrequencyOfBin(plan.pilots.back()), 6200.0);
}

TEST(SubchannelPlan, NearUltrasoundIsShiftedCopy) {
  const auto audible = SubchannelPlan::Audible();
  const auto nu = SubchannelPlan::NearUltrasound();
  ASSERT_EQ(nu.data.size(), audible.data.size());
  for (std::size_t i = 0; i < nu.data.size(); ++i) {
    EXPECT_EQ(nu.data[i], audible.data[i] + 80);
  }
  // 15-20 kHz band.
  EXPECT_GE(nu.FrequencyOfBin(nu.pilots.front()), 14900.0);
  EXPECT_LE(nu.FrequencyOfBin(nu.pilots.back()), 20000.0);
}

TEST(SubchannelPlan, SetsAreDisjointAndInBand) {
  for (const auto& plan :
       {SubchannelPlan::Audible(), SubchannelPlan::NearUltrasound()}) {
    EXPECT_NO_THROW(plan.Validate());
    std::set<std::size_t> all;
    for (auto b : plan.data) EXPECT_TRUE(all.insert(b).second);
    for (auto b : plan.pilots) EXPECT_TRUE(all.insert(b).second);
    for (auto b : plan.nulls) EXPECT_TRUE(all.insert(b).second);
    for (auto b : all) {
      EXPECT_GT(b, 0u);
      EXPECT_LT(b, plan.fft_size / 2);
    }
  }
}

TEST(SubchannelPlan, ValidateCatchesBadPlans) {
  auto plan = SubchannelPlan::Audible();
  plan.data.push_back(plan.pilots.front());  // reuse across sets
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = SubchannelPlan::Audible();
  plan.data.push_back(0);  // DC not allowed
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = SubchannelPlan::Audible();
  plan.data.push_back(200);  // beyond N/2
  EXPECT_THROW(plan.Validate(), std::invalid_argument);

  plan = SubchannelPlan::Audible();
  plan.pilots.clear();
  EXPECT_THROW(plan.Validate(), std::invalid_argument);
}

TEST(SubchannelPlan, Bandwidths) {
  const auto plan = SubchannelPlan::Audible();
  // Occupied span: bins 7..35 inclusive = 29 bins.
  EXPECT_NEAR(plan.OccupiedBandwidthHz(), 29 * plan.bin_hz(), 1e-6);
}

TEST(SelectSubchannels, QuietChannelPrefersLowFrequencies) {
  const auto plan = SubchannelPlan::Audible();
  std::vector<double> noise(256, 1.0);  // flat noise
  const auto selected = SelectSubchannels(plan, noise);
  EXPECT_EQ(selected.data.size(), plan.data.size());
  // With flat noise, the 12 lowest-frequency non-pilot bins win: 8,9,10,
  // 12,13,14,16,17,18,20,21,22.
  const std::vector<std::size_t> expected = {8,  9,  10, 12, 13, 14,
                                             16, 17, 18, 20, 21, 22};
  EXPECT_EQ(selected.data, expected);
}

TEST(SelectSubchannels, AvoidsJammedBins) {
  const auto plan = SubchannelPlan::Audible();
  std::vector<double> noise(256, 1.0);
  // Jam three default data bins hard.
  noise[16] = 1e6;
  noise[17] = 1e6;
  noise[25] = 1e6;
  const auto selected = SelectSubchannels(plan, noise);
  EXPECT_FALSE(selected.IsData(16));
  EXPECT_FALSE(selected.IsData(17));
  EXPECT_FALSE(selected.IsData(25));
  // Jammed bins end up in the null set instead.
  EXPECT_NE(std::find(selected.nulls.begin(), selected.nulls.end(), 16u),
            selected.nulls.end());
}

TEST(SelectSubchannels, PilotsNeverReassigned) {
  const auto plan = SubchannelPlan::Audible();
  std::vector<double> noise(256, 1.0);
  noise[19] = 1e-9;  // pilot bin with the least noise: still a pilot
  const auto selected = SelectSubchannels(plan, noise);
  EXPECT_EQ(selected.pilots, plan.pilots);
  EXPECT_FALSE(selected.IsData(19));
}

TEST(SelectSubchannels, NoiseRankingBeatsFrequencyPreference) {
  const auto plan = SubchannelPlan::Audible();
  std::vector<double> noise(256, 1.0);
  // Make low bins noisy (>= one quantization step: >3 dB).
  for (std::size_t b = 8; b <= 18; ++b) noise[b] = 10.0;
  const auto selected = SelectSubchannels(plan, noise);
  for (std::size_t b = 8; b <= 18; ++b) {
    EXPECT_FALSE(selected.IsData(b)) << b;
  }
}

TEST(SelectSubchannels, Validation) {
  const auto plan = SubchannelPlan::Audible();
  EXPECT_THROW(SelectSubchannels(plan, std::vector<double>(10, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(SelectSubchannels(plan, std::vector<double>(256, 1.0), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace wearlock::modem
