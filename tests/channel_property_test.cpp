// Property tests for the channel-hardening primitives (docs/channels.md):
// the drift estimator's accuracy envelope, carrier-sense sub-band
// reselection, the bounded MAC backoff ladder, and 2-pair MAC liveness.
//
// These pin the *component* contracts the end-to-end channel matrix
// relies on: if the drift estimator loses its +-2 ppm shift accuracy or
// the reselection stops steering around occupied bins, the matrix cells
// would still "pass" by failing closed - these tests catch the
// regression at the layer that caused it.
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audio/impairments.h"
#include "audio/scene.h"
#include "audio/signal.h"
#include "dsp/resample.h"
#include "modem/drift.h"
#include "modem/modulator.h"
#include "protocol/acoustic_mac.h"
#include "protocol/phone_controller.h"
#include "protocol/session.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace wearlock {
namespace {

using audio::Samples;

constexpr std::size_t kLeadIn = audio::kLeadInSamples;
constexpr std::size_t kLeadOut = audio::kSceneLeadOutSamples;

/// A probe frame sitting `shift` samples late in quiet ambient - the
/// capture a drifted watch records (audio/impairments.h).
Samples ProbeInAmbient(const Samples& probe, std::size_t shift,
                       std::uint64_t seed) {
  sim::Rng rng(seed);
  Samples recording =
      rng.GaussianVector(kLeadIn + shift + probe.size() + kLeadOut, 1e-4);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    recording[kLeadIn + shift + i] += probe[i];
  }
  return recording;
}

// --- Accumulated-shift (SRO) estimation ------------------------------

TEST(DriftEstimatorTest, RecoversSroWithinTwoPpmAcrossTheEnvelope) {
  const modem::FrameSpec spec;
  const Samples probe = modem::Modulator(spec).MakeProbeFrame().samples;
  for (const double sro_ppm : {10.0, 30.0, 50.0, 80.0}) {
    SCOPED_TRACE("sro " + std::to_string(sro_ppm));
    // The accumulated offset over the clock age, exactly as the channel
    // model computes its window shift.
    const std::size_t shift = static_cast<std::size_t>(std::llround(
        sro_ppm * 1e-6 * audio::kClockAgeS * audio::kSampleRate));
    const Samples recording = ProbeInAmbient(probe, shift, /*seed=*/11);
    const modem::DriftEstimate est =
        modem::EstimateDrift(recording, spec, kLeadIn);
    ASSERT_TRUE(est.valid);
    EXPECT_NEAR(static_cast<double>(est.shift_samples),
                static_cast<double>(shift), 2.0);
    EXPECT_NEAR(est.sro_ppm, sro_ppm, 2.0);
  }
}

TEST(DriftEstimatorTest, UndriftedCaptureMeasuresNearZero) {
  const modem::FrameSpec spec;
  const Samples probe = modem::Modulator(spec).MakeProbeFrame().samples;
  const modem::DriftEstimate est = modem::EstimateDrift(
      ProbeInAmbient(probe, 0, /*seed=*/11), spec, kLeadIn);
  ASSERT_TRUE(est.valid);
  EXPECT_LE(std::abs(est.shift_samples), 2);
  // Below the product's kMinCompensatePpm gate: a clean capture is
  // never resampled.
  EXPECT_LT(std::abs(est.rate_ppm), protocol::kMinCompensatePpm);
}

// --- Warp-rate estimation (Doppler + SRO) ----------------------------

TEST(DriftEstimatorTest, PilotSpacingTracksWalkingSpeedWarp) {
  const modem::FrameSpec spec;
  const Samples probe = modem::Modulator(spec).MakeProbeFrame().samples;
  // +-3000/4000 ppm brackets a 1.0-1.4 m/s walker (v / 343 m/s).
  for (const double rate_ppm : {-4000.0, -3000.0, 3000.0, 4000.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate_ppm));
    // The channel renders y[i] = x[i * rate] (modem/drift.h).
    const Samples warped =
        dsp::WarpTimeSinc(probe, 1.0 + rate_ppm * 1e-6);
    const modem::DriftEstimate est = modem::EstimateDrift(
        ProbeInAmbient(warped, 0, /*seed=*/11), spec, kLeadIn);
    ASSERT_TRUE(est.valid);
    EXPECT_GE(est.rate_score, modem::kMinRateScore);
    // One-sample lag over the 768-sample pilot span is ~1300 ppm;
    // parabolic refinement buys back the sub-sample part.
    EXPECT_NEAR(est.rate_ppm, rate_ppm, 400.0);
  }
}

TEST(DriftEstimatorTest, CompensateRateIsIdentityAtZero) {
  sim::Rng rng(3);
  const Samples x = rng.GaussianVector(2048, 0.1);
  EXPECT_EQ(modem::CompensateRate(x, 0.0), x);
}

TEST(DriftEstimatorTest, CompensateRateInvertsTheWarp) {
  const modem::FrameSpec spec;
  const Samples probe = modem::Modulator(spec).MakeProbeFrame().samples;
  const double rate_ppm = 4000.0;
  const Samples warped = dsp::WarpTimeSinc(probe, 1.0 + rate_ppm * 1e-6);
  const Samples restored = modem::CompensateRate(warped, rate_ppm);
  // The round trip restores the original timeline to interpolation
  // accuracy over the frame body (edges lose half a sinc kernel).
  const std::size_t n = std::min(restored.size(), probe.size());
  ASSERT_GT(n, spec.FrameSamples(modem::kProbeSymbols) - 64);
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 64; i + 64 < n; ++i) {
    err += (restored[i] - probe[i]) * (restored[i] - probe[i]);
    ref += probe[i] * probe[i];
  }
  ASSERT_GT(ref, 0.0);
  EXPECT_LT(std::sqrt(err / ref), 0.05);
}

// --- Carrier-sense sub-band reselection ------------------------------

/// Advance the impairments cursor until at least one neighbor is mid-
/// burst, then return an n-sample window of ambient + neighbor sum.
Samples CaptureWithNeighbors(audio::ChannelImpairments& chan, std::size_t n,
                             sim::Rng& ambient_rng) {
  for (int hop = 0; hop < 400; ++hop) {
    const Samples neighbor = chan.NeighborWaveform(n);
    double energy = 0.0;
    for (const double s : neighbor) energy += s * s;
    if (energy > 0.0) {
      Samples capture = ambient_rng.GaussianVector(n, 1e-4);
      for (std::size_t i = 0; i < n; ++i) capture[i] += neighbor[i];
      return capture;
    }
    chan.AdvanceCursor(n);
  }
  ADD_FAILURE() << "no neighbor became active within 400 windows";
  return ambient_rng.GaussianVector(n, 1e-4);
}

TEST(CarrierSenseTest, ReselectionAvoidsNeighborOccupiedBins) {
  const modem::FrameSpec spec;
  audio::ChannelImpairments chan(audio::ImpairmentPlan::Parse("pairs=2"),
                                 sim::Rng(42));
  ASSERT_TRUE(chan.has_neighbors());
  std::set<std::size_t> occupied;
  for (const auto& neighbor : chan.neighbors()) {
    occupied.insert(neighbor.bins.begin(), neighbor.bins.end());
  }
  ASSERT_FALSE(occupied.empty());

  sim::Rng ambient_rng(7);
  // Long enough to span every neighbor's duty cycle (periods top out at
  // 2.2 s), so the averaged sense spectrum carries *all* occupied bins,
  // not just the neighbor that happened to be mid-burst.
  const std::size_t window = 120000;
  const Samples capture = CaptureWithNeighbors(chan, window, ambient_rng);

  // The sense window sees the neighbors loud and clear...
  const protocol::CarrierSenseReport sense =
      protocol::SenseChannel(spec, capture);
  EXPECT_TRUE(sense.busy);
  ASSERT_EQ(sense.bin_power.size(), spec.fft_size());

  // ...and a quiet window does not.
  const protocol::CarrierSenseReport quiet =
      protocol::SenseChannel(spec, ambient_rng.GaussianVector(window, 1e-4));
  EXPECT_FALSE(quiet.busy);

  // Merge the sense spectrum into a flat probe-noise ranking exactly as
  // the attempt machine does (element-wise max) and reselect: no chosen
  // data bin may sit where a co-channel transmitter radiates.
  std::vector<double> noise(spec.fft_size(), 1e-10);
  for (std::size_t i = 0; i < noise.size(); ++i) {
    noise[i] = std::max(noise[i], sense.bin_power[i]);
  }
  const modem::SubchannelPlan chosen =
      modem::SelectSubchannels(spec.plan, noise);
  EXPECT_EQ(chosen.data.size(), spec.plan.data.size());
  for (const std::size_t bin : chosen.data) {
    EXPECT_EQ(occupied.count(bin), 0u)
        << "selected data bin " << bin << " is neighbor-occupied";
  }
}

// --- MAC backoff ladder ----------------------------------------------

TEST(AcousticMacTest, BackoffLadderIsBoundedExponential) {
  const auto backoff = [](int attempt) {
    return protocol::BackoffMs(attempt, protocol::kMacBackoffBaseMs,
                               protocol::kMacBackoffMaxMs);
  };
  EXPECT_DOUBLE_EQ(backoff(0), 80.0);
  EXPECT_DOUBLE_EQ(backoff(1), 160.0);
  EXPECT_DOUBLE_EQ(backoff(2), 320.0);
  EXPECT_DOUBLE_EQ(backoff(3), 640.0);
  EXPECT_DOUBLE_EQ(backoff(4), 1280.0);
  // Bounded: the cap holds no matter how deep the ladder goes.
  EXPECT_DOUBLE_EQ(backoff(5), 1280.0);
  EXPECT_DOUBLE_EQ(backoff(30), 1280.0);
}

// --- 2-pair MAC liveness ---------------------------------------------

TEST(AcousticMacTest, TwoContendingPairsNeverDeadlock) {
  // Two independent sessions, each simulating a 2-pair contended scene,
  // multiplexed on one virtual-clock event queue. Liveness: the queue
  // drains, both rounds emit their records, and both land on defined
  // outcomes - backoff exhaustion fails closed instead of spinning.
  sim::EventQueue queue;
  auto contended = [](std::uint64_t seed) {
    protocol::ScenarioConfig c = protocol::ScenarioConfig::Config1();
    c.scene.environment = audio::Environment::kQuietRoom;
    c.scene.distance_m = 0.3;
    c.impairments = audio::ImpairmentPlan::Parse("pairs=2");
    c.seed = seed;
    return c;
  };
  protocol::UnlockSession first(contended(100));
  protocol::UnlockSession second(contended(101));
  protocol::UnlockReport reports[2];
  bool done[2] = {false, false};
  first.StartAsync(queue, /*max_retries=*/2, {},
                   [&](const protocol::UnlockReport& r) {
                     reports[0] = r;
                     done[0] = true;
                   });
  second.StartAsync(queue, /*max_retries=*/2, {},
                    [&](const protocol::UnlockReport& r) {
                      reports[1] = r;
                      done[1] = true;
                    });
  queue.RunUntilIdle();
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    ASSERT_TRUE(done[i]);
    EXPECT_NE(ToString(reports[i].outcome), "?");
    EXPECT_EQ(reports[i].unlocked,
              reports[i].outcome == protocol::UnlockOutcome::kUnlocked);
  }
}

}  // namespace
}  // namespace wearlock
