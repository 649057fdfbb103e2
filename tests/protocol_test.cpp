// Protocol-layer unit tests: keyguard, OTP service, ambient filter,
// offload planner.
#include <gtest/gtest.h>

#include "audio/noise.h"
#include "crypto/hotp.h"
#include "modem/modem.h"
#include "protocol/ambient.h"
#include "protocol/keyguard.h"
#include "protocol/offload.h"
#include "protocol/otp_service.h"
#include "sim/rng.h"

namespace wearlock::protocol {
namespace {

// -------------------------------------------------------------- keyguard
TEST(Keyguard, SuccessUnlocksAndResets) {
  Keyguard kg;
  EXPECT_EQ(kg.state(), LockState::kLocked);
  kg.ReportFailure();
  kg.ReportSuccess();
  EXPECT_EQ(kg.state(), LockState::kUnlocked);
  EXPECT_EQ(kg.consecutive_failures(), 0u);
}

TEST(Keyguard, ThreeStrikesLockOut) {
  Keyguard kg;
  kg.ReportFailure();
  kg.ReportFailure();
  EXPECT_EQ(kg.state(), LockState::kLocked);
  kg.ReportFailure();
  EXPECT_EQ(kg.state(), LockState::kLockedOut);
  // WearLock success cannot clear a lockout...
  kg.ReportSuccess();
  EXPECT_EQ(kg.state(), LockState::kLockedOut);
  EXPECT_FALSE(kg.CanAttemptWearlock());
  // ...but manual credentials can.
  kg.UnlockWithCredential();
  EXPECT_EQ(kg.state(), LockState::kUnlocked);
  kg.Relock();
  EXPECT_TRUE(kg.CanAttemptWearlock());
}

TEST(Keyguard, RelockOnlyFromUnlocked) {
  Keyguard kg;
  kg.Relock();  // already locked: no-op
  EXPECT_EQ(kg.state(), LockState::kLocked);
  kg.ReportSuccess();
  kg.Relock();
  EXPECT_EQ(kg.state(), LockState::kLocked);
}

// ------------------------------------------------------------------- otp
TEST(OtpService, ExactTokenValidates) {
  OtpService otp({'k', 'e', 'y'});
  const auto bits = otp.NextTokenBits();
  const auto v = otp.ValidateBits(bits, 0.0);
  EXPECT_TRUE(v.accepted);
  EXPECT_EQ(v.ber, 0.0);
  EXPECT_EQ(v.matched_counter, 0u);
}

TEST(OtpService, MintsTheRfc4226SequenceAndValidatesEach) {
  const std::vector<std::uint8_t> key = {'1', '2', '3', '4', '5', '6', '7',
                                         '8', '9', '0', '1', '2', '3', '4',
                                         '5', '6', '7', '8', '9', '0'};
  OtpService otp(key);
  for (std::uint64_t counter = 0; counter < 5; ++counter) {
    const auto bits = otp.NextTokenBits();
    EXPECT_EQ(bits, modem::BitsFromWord(crypto::HotpValue(key, counter)));
    const auto v = otp.ValidateBits(bits, 0.0);
    EXPECT_TRUE(v.accepted) << counter;
    EXPECT_EQ(v.matched_counter, counter);
  }
}

TEST(OtpService, ToleratesBitErrorsUnderBound) {
  OtpService otp({'k', 'e', 'y'});
  auto bits = otp.NextTokenBits();
  bits[3] ^= 1;  // 1/32 = 3.1% BER
  bits[17] ^= 1; // 2/32 = 6.3%
  const auto v = otp.ValidateBits(bits, 0.1);
  EXPECT_TRUE(v.accepted);
  EXPECT_NEAR(v.ber, 2.0 / 32.0, 1e-9);
}

TEST(OtpService, RejectsOverBound) {
  OtpService otp({'k', 'e', 'y'});
  auto bits = otp.NextTokenBits();
  for (int i = 0; i < 8; ++i) bits[static_cast<std::size_t>(i)] ^= 1;  // 25%
  EXPECT_FALSE(otp.ValidateBits(bits, 0.1).accepted);
}

TEST(OtpService, ReplayOfValidatedTokenFails) {
  OtpService otp({'k', 'e', 'y'});
  const auto bits = otp.NextTokenBits();
  EXPECT_TRUE(otp.ValidateBits(bits, 0.1).accepted);
  // Same bits again: acceptance burned the token, and nothing is live
  // until the next mint.
  EXPECT_FALSE(otp.ValidateBits(bits, 0.1).accepted);
  // After the next mint the replay is compared against the new token,
  // which with HMAC outputs is practically never <=10% away.
  otp.NextTokenBits();
  EXPECT_FALSE(otp.ValidateBits(bits, 0.1).accepted);
}

TEST(OtpService, LatestTokenValidatesAfterLostDelivery) {
  OtpService otp({'k', 'e', 'y'});
  otp.NextTokenBits();                 // token 0, lost
  const auto bits1 = otp.NextTokenBits();  // token 1, delivered
  const auto v = otp.ValidateBits(bits1, 0.05);
  EXPECT_TRUE(v.accepted);
  EXPECT_EQ(v.matched_counter, 1u);
}

TEST(OtpService, MintingRetiresEarlierTokens) {
  // A failed attempt's token never validated, but the next attempt's
  // mint retires it: a clean recording of it must not unlock later.
  OtpService otp({'k', 'e', 'y'});
  const auto stale = otp.NextTokenBits();  // token 0, attempt failed
  otp.NextTokenBits();                     // token 1, the next attempt
  const auto v = otp.ValidateBits(stale, 0.1);
  EXPECT_FALSE(v.accepted);
  EXPECT_EQ(v.matched_counter, 1u);
}

TEST(OtpService, NoIssuedTokensRejects) {
  OtpService otp({'k', 'e', 'y'});
  EXPECT_FALSE(otp.ValidateBits(std::vector<std::uint8_t>(32, 0), 0.5).accepted);
  EXPECT_FALSE(otp.ValidateBits({1, 0, 1}, 0.5).accepted);  // malformed
}

TEST(OtpService, CodeRendering) {
  OtpService otp(std::vector<std::uint8_t>{'1', '2', '3', '4', '5', '6', '7',
                                           '8', '9', '0', '1', '2', '3', '4',
                                           '5', '6', '7', '8', '9', '0'});
  EXPECT_EQ(otp.CurrentCode(6), "755224");  // RFC 4226 counter 0
  EXPECT_THROW(OtpService({}), std::invalid_argument);
}

// --------------------------------------------------------------- ambient
TEST(Ambient, SharedNoiseScoresHigh) {
  sim::Rng rng(61);
  audio::NoiseSource source(audio::Environment::kOffice, rng.Fork());
  const auto shared = source.Generate(audio::Samples(8192));
  // Both devices hear the same ambience plus small independent noise.
  audio::Samples phone = shared, watch = shared;
  for (auto& v : phone) v += 1e-5 * rng.Gaussian();
  for (auto& v : watch) v += 1e-5 * rng.Gaussian();
  EXPECT_GT(AmbientSimilarity(phone, watch), 0.8);
  EXPECT_GE(AmbientSimilarity(phone, watch), kAmbientSimilarityThreshold);
}

TEST(Ambient, IndependentNoiseScoresLow) {
  sim::Rng rng(62);
  audio::NoiseSource a(audio::Environment::kOffice, rng.Fork());
  audio::NoiseSource b(audio::Environment::kOffice, rng.Fork());
  const auto phone = a.Generate(audio::Samples(8192));
  const auto watch = b.Generate(audio::Samples(8192));
  EXPECT_LT(AmbientSimilarity(phone, watch), 0.55);
  EXPECT_LT(AmbientSimilarity(phone, watch), kAmbientSimilarityThreshold);
}

TEST(Ambient, SurvivesClockSkew) {
  sim::Rng rng(63);
  audio::NoiseSource source(audio::Environment::kCafe, rng.Fork());
  const auto shared = source.Generate(audio::Samples(10000));
  audio::Samples phone = shared;
  // Watch recording starts 700 samples later (clock skew).
  audio::Samples watch(shared.begin() + 700, shared.end());
  EXPECT_GT(AmbientSimilarity(phone, watch), 0.7);
}

TEST(Ambient, DegenerateInputs) {
  EXPECT_EQ(AmbientSimilarity({}, {}), 0.0);
  EXPECT_EQ(AmbientSimilarity(audio::Samples(10, 0.1), audio::Samples(10, 0.1)),
            0.0);
}

// --------------------------------------------------------------- offload
TEST(Offload, LocalChargesWatchCompute) {
  sim::Rng rng(64);
  sim::WirelessLink link(sim::LinkModel::Bluetooth(), rng.Fork());
  OffloadPlanner planner;
  planner.site = ProcessingSite::kWatchLocal;
  const StepCost cost = planner.Cost(/*host_ms=*/2.0, 50'000, link);
  EXPECT_EQ(cost.transfer_ms, 0.0);
  EXPECT_NEAR(cost.compute_ms, 2.0 * planner.watch.compute_scale, 1e-9);
  EXPECT_GT(cost.watch_energy_mj, 0.0);
  EXPECT_EQ(cost.phone_energy_mj, 0.0);
}

TEST(Offload, OffloadMovesComputeToPhone) {
  sim::Rng rng(65);
  sim::WirelessLink link(sim::LinkModel::Wifi(), rng.Fork());
  OffloadPlanner planner;
  planner.site = ProcessingSite::kOffloadToPhone;
  const StepCost cost = planner.Cost(2.0, 50'000, link);
  EXPECT_GT(cost.transfer_ms, 0.0);
  EXPECT_NEAR(cost.compute_ms, 2.0 * planner.phone.compute_scale, 1e-9);
  EXPECT_GT(cost.phone_energy_mj, 0.0);
}

TEST(Offload, OffloadingBeatsLocalOnTimeAndWatchEnergy) {
  // The paper's Fig. 6 claim: offloading saves both time and energy.
  sim::Rng rng(66);
  sim::WirelessLink wifi(sim::LinkModel::Wifi(), rng.Fork());
  OffloadPlanner local{.site = ProcessingSite::kWatchLocal};
  OffloadPlanner remote{.site = ProcessingSite::kOffloadToPhone};
  const double host_ms = 3.0;          // typical demod kernel
  const std::size_t bytes = 80'000;    // ~0.9 s of 16-bit audio
  const StepCost c_local = local.Cost(host_ms, bytes, wifi);
  const StepCost c_remote = remote.Cost(host_ms, bytes, wifi);
  EXPECT_LT(c_remote.total_ms(), c_local.total_ms());
  EXPECT_LT(c_remote.watch_energy_mj, c_local.watch_energy_mj);
}

TEST(Offload, RecordingBytesIs16BitPcm) {
  EXPECT_EQ(RecordingBytes(44100), 88200u);
}

}  // namespace
}  // namespace wearlock::protocol
