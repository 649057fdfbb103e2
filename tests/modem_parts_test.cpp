// Unit tests for the modem's internal stages: frame assembly, preamble
// detection, CP fine sync, channel estimation/equalization, pilot SNR,
// NLOS delay spread, adaptive mode selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "dsp/fft_plan.h"
#include "dsp/resample.h"
#include "dsp/spl.h"
#include "dsp/workspace.h"
#include "modem/adaptive.h"
#include "modem/coding.h"
#include "modem/demodulator.h"
#include "modem/detector.h"
#include "modem/equalizer.h"
#include "modem/modem.h"
#include "modem/modulator.h"
#include "modem/nlos.h"
#include "modem/snr.h"
#include "modem/sync.h"
#include "sim/rng.h"

namespace wearlock::modem {
namespace {

FrameSpec DefaultSpec() { return FrameSpec{}; }

/// One CP-prefixed OFDM symbol carrying `loads`, built as the modulator does.
audio::Samples MakeSymbol(const FrameSpec& spec,
                          const std::vector<BinLoad>& loads) {
  audio::Samples symbol(spec.symbol_samples());
  WriteSymbol(spec, *dsp::PlanCache::Shared().Get(spec.fft_size()), loads,
              {}, {}, dsp::Workspace::PerThread(), symbol);
  return symbol;
}

std::vector<BinLoad> PilotLoads(const FrameSpec& spec) {
  std::vector<BinLoad> loads;
  for (std::size_t b : spec.plan.pilots) loads.push_back({b, PilotValue(b)});
  return loads;
}

// ----------------------------------------------------------------- frame
TEST(Frame, LayoutArithmetic) {
  const FrameSpec spec = DefaultSpec();
  EXPECT_EQ(spec.fft_size(), 256u);
  EXPECT_EQ(spec.symbol_samples(), 384u);   // 128 CP + 256 body
  EXPECT_EQ(spec.header_samples(), 1280u);  // 256 preamble + 1024 guard
  EXPECT_EQ(spec.FrameSamples(2), 1280u + 2 * 384u);
  // Data rate: 12 bins * 2 bits / 8.71 ms ~ 2756 bps for QPSK.
  EXPECT_NEAR(spec.DataRateBps(2), 2756.0, 5.0);
}

TEST(Words, BitsFromWordIsMsbFirst) {
  const std::string expected = "10100101110000110000111100011110";
  std::vector<std::uint8_t> bits;
  for (const char c : expected) bits.push_back(c == '1' ? 1 : 0);
  EXPECT_EQ(BitsFromWord(0xA5C3'0F1Eu), bits);
}

TEST(Frame, PilotValuesAreUnitMagnitude) {
  for (std::size_t b : DefaultSpec().plan.pilots) {
    EXPECT_NEAR(std::abs(PilotValue(b)), 1.0, 1e-12);
  }
  // Different bins get different phases (no trivially aligned comb).
  EXPECT_GT(std::abs(PilotValue(7) - PilotValue(11)), 0.1);
}

TEST(Frame, WriteSymbolHasCyclicPrefix) {
  const FrameSpec spec = DefaultSpec();
  const auto symbol = MakeSymbol(spec, PilotLoads(spec));
  ASSERT_EQ(symbol.size(), spec.symbol_samples());
  // CP == tail of the body.
  for (std::size_t i = 0; i < spec.cyclic_prefix_samples; ++i) {
    EXPECT_NEAR(symbol[i], symbol[i + spec.fft_size()], 1e-12) << i;
  }
}

TEST(Frame, WriteSymbolIsReal) {
  const FrameSpec spec = DefaultSpec();
  const auto symbol = MakeSymbol(spec, {{20, {0.3, 0.8}}});
  // Spectrum of the body must be Hermitian (it came out real), and the
  // loaded bin must carry the value.
  audio::Samples body(symbol.begin() + 128, symbol.end());
  const auto spec_out = dsp::FftReal(body);
  EXPECT_NEAR(spec_out[20].real(), 0.3, 1e-9);
  EXPECT_NEAR(spec_out[20].imag(), 0.8, 1e-9);
}

TEST(Frame, WriteSymbolRejectsBadBins) {
  const FrameSpec spec = DefaultSpec();
  EXPECT_THROW(MakeSymbol(spec, {{0, {1.0, 0.0}}}), std::invalid_argument);
  EXPECT_THROW(MakeSymbol(spec, {{128, {1.0, 0.0}}}), std::invalid_argument);
}

TEST(Frame, NormalizeFrameHitsPeak) {
  audio::Samples x = {0.1, -0.5, 0.2};
  NormalizeFrame(x);
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, kPeakAmplitude, 1e-12);
  audio::Samples silent(10, 0.0);
  NormalizeFrame(silent);  // no-op, no NaNs
  for (double v : silent) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------------------- modulator
TEST(Modulator, SymbolCountMatchesPayload) {
  const Modulator mod(DefaultSpec());
  const std::vector<std::uint8_t> token(32, 1);
  // 32 bits / (12 bins * 2 bits) = 2 symbols for QPSK.
  const auto tx = mod.ModulateBits(Modulation::kQpsk, token);
  EXPECT_EQ(tx.n_symbols, 2u);
  EXPECT_EQ(tx.samples.size(), DefaultSpec().FrameSamples(2));
  EXPECT_EQ(mod.ModulateBits(Modulation::k8Psk, token).n_symbols, 1u);
  EXPECT_EQ(mod.ModulateBits(Modulation::kBask, token).n_symbols, 3u);
}

TEST(Modulator, FramePeakBounded) {
  sim::Rng rng(3);
  const Modulator mod(DefaultSpec());
  std::vector<std::uint8_t> bits(64);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto tx = mod.ModulateBits(Modulation::k16Qam, bits);
  double peak = 0.0;
  for (double v : tx.samples) peak = std::max(peak, std::abs(v));
  EXPECT_LE(peak, kPeakAmplitude + 1e-9);
}

TEST(Modulator, ProbeFrameLoadsAllDataAndPilotBins) {
  const FrameSpec spec = DefaultSpec();
  const Modulator mod(spec);
  const auto tx = mod.MakeProbeFrame();
  // FFT the probe symbol body directly (known offsets, no channel).
  const std::size_t body_start =
      spec.header_samples() + spec.cyclic_prefix_samples;
  audio::Samples body(tx.samples.begin() + static_cast<long>(body_start),
                      tx.samples.begin() +
                          static_cast<long>(body_start + spec.fft_size()));
  const auto spectrum = dsp::FftReal(body);
  double data_power = 0.0, null_power = 0.0;
  for (std::size_t b : spec.plan.data) data_power += std::norm(spectrum[b]);
  for (std::size_t b : spec.plan.nulls) null_power += std::norm(spectrum[b]);
  EXPECT_GT(data_power, 1e3 * null_power);
}

// -------------------------------------------------------------- detector
TEST(Detector, FindsPreambleInCleanRecording) {
  const FrameSpec spec = DefaultSpec();
  const PreambleDetector detector(spec);
  audio::Samples rec(8000, 0.0);
  const auto preamble = MakePreamble(spec);
  for (std::size_t i = 0; i < preamble.size(); ++i) {
    rec[3000 + i] = 0.01 * preamble[i];
  }
  // Add a tiny noise floor so the energy gate has a reference.
  sim::Rng rng(9);
  for (auto& v : rec) v += 1e-5 * rng.Gaussian();
  const auto det = detector.Detect(rec);
  ASSERT_TRUE(det.has_value());
  EXPECT_NEAR(static_cast<double>(det->preamble_start), 3000.0, 2.0);
  EXPECT_GT(det->score, 0.9);
}

TEST(Detector, SilenceYieldsNothing) {
  const PreambleDetector detector(DefaultSpec());
  sim::Rng rng(10);
  audio::Samples rec = rng.GaussianVector(8000, 1e-5);  // noise only
  EXPECT_FALSE(detector.Detect(rec).has_value());
}

TEST(Detector, BelowScoreThresholdRejected) {
  // A loud 15 kHz tone out of silence: the energy gate opens, but the
  // audible-band chirp never correlates with it, so every score stays
  // under kScoreThreshold and the detector declares no preamble.
  const PreambleDetector detector(DefaultSpec());
  audio::Samples rec(8000, 0.0);
  for (std::size_t i = 4000; i < rec.size(); ++i) {
    rec[i] = 0.05 * std::sin(2.0 * std::numbers::pi * 15000.0 *
                             static_cast<double>(i) / audio::kSampleRate);
  }
  ASSERT_TRUE(detector.FindSignalOnset(rec).has_value());
  double best = 0.0;
  for (const double score : detector.Scores(rec)) {
    best = std::max(best, std::abs(score));
  }
  EXPECT_LT(best, kScoreThreshold);
  EXPECT_FALSE(detector.Detect(rec).has_value());
}

TEST(Detector, EnergyGateLocatesOnset) {
  const PreambleDetector detector(DefaultSpec());
  sim::Rng rng(12);
  audio::Samples rec = rng.GaussianVector(10000, 1e-5);
  for (std::size_t i = 5000; i < 6000; ++i) rec[i] += 0.05;
  const auto onset = detector.FindSignalOnset(rec);
  ASSERT_TRUE(onset.has_value());
  EXPECT_GE(*onset, 4500u);
  EXPECT_LE(*onset, 5200u);
}

// ------------------------------------------------------------------ sync
TEST(Sync, RecoversInjectedOffset) {
  const FrameSpec spec = DefaultSpec();
  const Modulator mod(spec);
  sim::Rng rng(13);
  std::vector<std::uint8_t> bits(24);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto tx = mod.ModulateBits(Modulation::kQpsk, bits);

  for (long shift : {-7L, 0L, 9L}) {
    // Nominal CP start, deliberately mis-pointed by -shift.
    audio::Samples rec = tx.samples;
    const std::size_t nominal = spec.header_samples();
    const long claimed = static_cast<long>(nominal) - shift;
    const auto sync = FineSync(rec, static_cast<std::size_t>(claimed), spec, 16);
    EXPECT_EQ(sync.offset, shift) << "shift " << shift;
    EXPECT_GT(sync.metric, 0.9);
  }
}

/// FineSyncJoint as it ran before four offsets shared a pass: one
/// scalar CP metric per offset per symbol.
FineSyncResult ScalarFineSyncJoint(std::span<const double> recording,
                                   std::size_t symbols_start,
                                   std::size_t n_symbols, const FrameSpec& spec,
                                   long search_range) {
  const std::size_t tg = spec.cyclic_prefix_samples;
  const std::size_t ts = spec.fft_size();
  const auto metric_at = [&](long cp_start) {
    if (cp_start < 0) return 0.0;
    const std::size_t s = static_cast<std::size_t>(cp_start);
    if (s + tg + ts > recording.size()) return 0.0;
    double dot = 0.0, e_head = 0.0, e_tail = 0.0;
    for (std::size_t t = 0; t < tg; ++t) {
      const double head = recording[s + t];
      const double tail = recording[s + t + ts];
      dot += head * tail;
      e_head += head * head;
      e_tail += tail * tail;
    }
    const double denom = std::sqrt(e_head * e_tail);
    return denom > 1e-30 ? dot / denom : 0.0;
  };
  FineSyncResult best;
  if (n_symbols == 0) return best;
  bool found = false;
  for (long tf = -search_range; tf <= search_range; ++tf) {
    double acc = 0.0;
    for (std::size_t s = 0; s < n_symbols; ++s) {
      acc += metric_at(static_cast<long>(symbols_start) + tf +
                       static_cast<long>(s * spec.symbol_samples()));
    }
    const double metric = acc / static_cast<double>(n_symbols);
    if (!found || metric > best.metric) {
      best = {tf, metric};
      found = true;
    }
  }
  return best;
}

TEST(Sync, JointSearchMatchesTheScalarLoopBitForBit) {
  const FrameSpec spec = DefaultSpec();
  const std::size_t sym = spec.symbol_samples();
  sim::Rng rng(29);
  const Modulator mod(spec);
  std::vector<std::uint8_t> bits(96);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  audio::Samples frame = mod.ModulateBits(Modulation::kQpsk, bits).samples;
  // Noise, the frame, an all-zero stretch, then -0.0 samples.
  audio::Samples rec = rng.GaussianVector(700, 1e-3);
  audio::Append(rec, frame);
  rec.insert(rec.end(), 3 * sym, 0.0);
  rec.insert(rec.end(), 2 * sym, -0.0);
  for (std::size_t i = 0; i < rec.size(); i += 7) {
    if (rec[i] == 0.0) rec[i] = -0.0;
  }
  const std::size_t frame_symbols = 700 + spec.header_samples();
  const std::size_t tail = rec.size() - 3 * sym;  // the last three windows
  struct Case {
    std::size_t start, symbols;
  };
  for (const Case c : {Case{frame_symbols, 6},   // the frame itself
                       Case{5, 4},               // the recording's start
                       Case{tail, 3},            // runs off its end
                       Case{rec.size() - 5 * sym, 5},  // zeros and -0.0
                       Case{frame_symbols, 1}, Case{frame_symbols, 0}}) {
    for (const long range : {0L, 1L, 3L, 4L, 5L, 7L, 48L}) {
      const FineSyncResult got =
          FineSyncJoint(rec, c.start, c.symbols, spec, range);
      const FineSyncResult want =
          ScalarFineSyncJoint(rec, c.start, c.symbols, spec, range);
      EXPECT_EQ(got.offset, want.offset)
          << "start " << c.start << " symbols " << c.symbols << " range " << range;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.metric),
                std::bit_cast<std::uint64_t>(want.metric))
          << "start " << c.start << " symbols " << c.symbols << " range " << range;
    }
  }
}

TEST(Sync, OutOfBoundsHandled) {
  const FrameSpec spec = DefaultSpec();
  audio::Samples tiny(10, 0.0);
  const auto sync = FineSync(tiny, 5, spec, 4);
  EXPECT_EQ(sync.offset, 0);
  EXPECT_EQ(sync.metric, 0.0);
}

// ------------------------------------------------------------- equalizer
TEST(Equalizer, RecoversFlatChannel) {
  const FrameSpec spec = DefaultSpec();
  const auto symbol = MakeSymbol(spec, PilotLoads(spec));
  audio::Samples body(symbol.begin() + 128, symbol.end());
  const auto spectrum = dsp::FftReal(body);
  dsp::Workspace ws;
  const auto est = EstimateChannelInto(PilotGeometry(spec), spectrum, ws);
  // Flat unit channel: |H| ~ 1 across the band.
  for (std::size_t b : spec.plan.data) {
    EXPECT_NEAR(std::abs(est.At(b)), 1.0, 0.05) << b;
  }
}

TEST(Equalizer, TracksAttenuationAndPhase) {
  const FrameSpec spec = DefaultSpec();
  std::vector<BinLoad> loads = PilotLoads(spec);
  loads.push_back({20, dsp::Complex(1.0, 0.0)});
  const auto symbol = MakeSymbol(spec, loads);
  // Apply a one-sample delay = linear phase across frequency + gain 0.5.
  audio::Samples degraded = dsp::DelayInteger(symbol, 1);
  for (auto& v : degraded) v *= 0.5;
  audio::Samples body(degraded.begin() + 129,
                      degraded.begin() + 129 + 256);
  const auto spectrum = dsp::FftReal(body);
  dsp::Workspace ws;
  const auto est = EstimateChannelInto(PilotGeometry(spec), spectrum, ws);
  const auto eq = EqualizeInto(est, spectrum, std::vector<std::size_t>{20}, ws);
  EXPECT_NEAR(eq[0].real(), 1.0, 0.05);
  EXPECT_NEAR(eq[0].imag(), 0.0, 0.05);
}

TEST(Equalizer, DeepFadeDoesNotBlowUp) {
  const dsp::ComplexVec faded(29, dsp::Complex(0.0, 0.0));
  const ChannelView est{7, faded};
  dsp::ComplexVec spectrum(256, dsp::Complex(1.0, 0.0));
  dsp::Workspace ws;
  const auto eq = EqualizeInto(est, spectrum, std::vector<std::size_t>{16}, ws);
  EXPECT_TRUE(std::isfinite(eq[0].real()));
}

TEST(Equalizer, UnequalPilotSpacingThrows) {
  FrameSpec spec = DefaultSpec();
  spec.plan.pilots = {7, 11, 16, 19, 23, 27, 31, 35};  // 11->16 gap differs
  spec.plan.nulls.clear();
  dsp::ComplexVec spectrum(256, dsp::Complex(1.0, 0.0));
  dsp::Workspace ws;
  EXPECT_THROW(EstimateChannelInto(PilotGeometry(spec), spectrum, ws),
               std::invalid_argument);
}

// ----------------------------------------------------------- demodulator
TEST(Demodulator, NonPowerOfTwoFftSizeThrowsAtConstruction) {
  // Every symbol spectrum runs the cached FFT plan, so a size no plan
  // covers is refused when the receiver is built, not at the first frame.
  FrameSpec spec = DefaultSpec();
  spec.plan.fft_size = 250;
  EXPECT_THROW(Demodulator{spec}, std::invalid_argument);
  EXPECT_NO_THROW(Demodulator{DefaultSpec()});
}

// ------------------------------------------------------------------- snr
TEST(Snr, PilotSnrSeparatesCleanFromNoisy) {
  const FrameSpec spec = DefaultSpec();
  const auto symbol = MakeSymbol(spec, PilotLoads(spec));
  audio::Samples body(symbol.begin() + 128, symbol.end());
  const auto clean = dsp::FftReal(body);
  EXPECT_GT(PilotSnrDb(spec, clean), 40.0);

  sim::Rng rng(14);
  audio::Samples noisy = body;
  for (auto& v : noisy) v += 0.02 * rng.Gaussian();
  const auto snr_noisy = PilotSnrDb(spec, dsp::FftReal(noisy));
  EXPECT_LT(snr_noisy, 40.0);
  EXPECT_GT(snr_noisy, 0.0);
}

TEST(Snr, NoisePowerFromAmbientShape) {
  const FrameSpec spec = DefaultSpec();
  sim::Rng rng(15);
  // Tone at bin 20 over a small floor: bin 20 must dominate.
  audio::Samples ambient(4096);
  for (std::size_t i = 0; i < ambient.size(); ++i) {
    ambient[i] = 0.1 * std::sin(2.0 * std::numbers::pi * 20.0 *
                                static_cast<double>(i) / 256.0) +
                 1e-4 * rng.Gaussian();
  }
  const auto power = NoisePowerFromAmbient(spec, ambient);
  ASSERT_EQ(power.size(), 256u);
  EXPECT_GT(power[20], 100.0 * power[24]);
  EXPECT_THROW(NoisePowerFromAmbient(spec, audio::Samples(10, 0.0)),
               std::invalid_argument);
}

TEST(Snr, EbN0AccountsForRate) {
  const FrameSpec spec = DefaultSpec();
  // Same SNR: lower-rate modulation gets more Eb/N0.
  EXPECT_GT(EbN0Db(spec, Modulation::kBask, 10.0),
            EbN0Db(spec, Modulation::kQpsk, 10.0));
  EXPECT_GT(EbN0Db(spec, Modulation::kQpsk, 10.0),
            EbN0Db(spec, Modulation::k16Qam, 10.0));
}

// ------------------------------------------------------------------ nlos
TEST(Nlos, SharpProfileIsLos) {
  std::vector<double> scores(1000, 0.0);
  scores[500] = 1.0;  // single sharp arrival
  const auto profile = ComputeDelayProfile(scores, 500, 44100.0);
  EXPECT_LT(profile.rms_delay_s, 1e-4);
  EXPECT_FALSE(IsNlos(profile));
}

TEST(Nlos, SpreadProfileIsNlos) {
  std::vector<double> scores(4000, 0.0);
  // Weak direct + strong late reflections over several ms.
  scores[500] = 0.3;
  for (int k = 0; k < 6; ++k) {
    scores[700 + k * 300] = 0.25;
  }
  const auto profile = ComputeDelayProfile(scores, 500, 44100.0,
                                           /*pre=*/64, /*post=*/2500);
  EXPECT_GT(profile.rms_delay_s, 0.0015);
  EXPECT_TRUE(IsNlos(profile));
}

TEST(Nlos, Validation) {
  EXPECT_THROW(ComputeDelayProfile({}, 0, 44100.0), std::invalid_argument);
  EXPECT_THROW(ComputeDelayProfile({1.0}, 5, 44100.0), std::invalid_argument);
  EXPECT_THROW(ComputeDelayProfile({1.0}, 0, 0.0), std::invalid_argument);
}

// -------------------------------------------------------------- adaptive
TEST(Adaptive, MeasuredTableHasFloors) {
  // 8PSK and 16QAM cannot reach tight targets on this hardware.
  EXPECT_TRUE(std::isinf(MeasuredRequiredEbN0Db(Modulation::k8Psk, 0.01)));
  EXPECT_TRUE(std::isinf(MeasuredRequiredEbN0Db(Modulation::k16Qam, 0.01)));
  // QPSK can.
  EXPECT_TRUE(std::isfinite(MeasuredRequiredEbN0Db(Modulation::kQpsk, 0.01)));
}

TEST(Adaptive, SelectsHighOrderWhenSnrIsHigh) {
  AdaptiveConfig config;  // MaxBER 0.1, prefer 8PSK
  const auto high = SelectModeFromSnr(DefaultSpec(), 30.0, config);
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(*high, Modulation::k8Psk);
  const auto mid = SelectModeFromSnr(DefaultSpec(), 12.0, config);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(*mid, Modulation::kQpsk);
  EXPECT_FALSE(SelectModeFromSnr(DefaultSpec(), -10.0, config).has_value());
}

TEST(Adaptive, TighterBerDisables8Psk) {
  AdaptiveConfig config;
  config.max_ber = 0.01;
  const auto mode = SelectModeFromSnr(DefaultSpec(), 30.0, config);
  ASSERT_TRUE(mode.has_value());
  EXPECT_EQ(*mode, Modulation::kQpsk);  // 8PSK floor excludes it
}

TEST(Adaptive, ProbeVolumeRule) {
  // SPLtx = noise + SNRmin + spreading loss to the secure range.
  const double spl = ProbeTxSpl(40.0, 15.0, 1.0, 0.1);
  EXPECT_NEAR(spl, 40.0 + 15.0 + 20.0, 0.01);
}

// Property: Interleave/Deinterleave are mutually inverse permutations for
// any (length, depth) pair - including degenerate depths, lengths shorter
// than the depth, and lengths not divisible by it. 150 random cases.
TEST(CodingProperty, InterleaveRoundTripsAnyLengthAndDepth) {
  sim::Rng rng(9100);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 300));
    const std::size_t depth = static_cast<std::size_t>(rng.UniformInt(0, 16));
    std::vector<std::uint8_t> bits(n);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));

    const auto interleaved = Interleave(bits, depth);
    ASSERT_EQ(interleaved.size(), bits.size()) << "n=" << n << " d=" << depth;
    EXPECT_EQ(Deinterleave(interleaved, depth), bits)
        << "n=" << n << " d=" << depth;
    // The inverse composition also round-trips (true permutation, not
    // just a left inverse).
    EXPECT_EQ(Interleave(Deinterleave(bits, depth), depth), bits)
        << "n=" << n << " d=" << depth;
  }
}

TEST(CodingProperty, InterleavePreservesMultisetAndSpreadsBursts) {
  sim::Rng rng(9200);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(40, 200));
    const std::size_t depth = static_cast<std::size_t>(rng.UniformInt(2, 8));
    std::vector<std::uint8_t> bits(n);
    std::size_t ones = 0;
    for (auto& b : bits) {
      b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
      ones += b;
    }
    const auto out = Interleave(bits, depth);
    std::size_t out_ones = 0;
    for (auto b : out) out_ones += b;
    EXPECT_EQ(out_ones, ones);
  }

  // A burst of adjacent on-air errors deinterleaves to coded positions
  // exactly `depth` apart - with depth >= the code block length, at most
  // one burst error lands per codeword.
  const std::size_t n = 84, depth = 8;
  std::vector<std::uint8_t> zeros(n, 0);
  auto burst = Interleave(zeros, depth);
  const std::size_t kBurstLen = 4;
  for (std::size_t i = 2; i < 2 + kBurstLen; ++i) burst[i] = 1;
  const auto spread = Deinterleave(burst, depth);
  std::vector<std::size_t> error_positions;
  for (std::size_t i = 0; i < spread.size(); ++i) {
    if (spread[i]) error_positions.push_back(i);
  }
  ASSERT_EQ(error_positions.size(), kBurstLen);
  for (std::size_t i = 1; i < error_positions.size(); ++i) {
    EXPECT_EQ(error_positions[i] - error_positions[i - 1], depth)
        << "burst errors must land one code block apart";
  }
}

// Property: both block codes correct the errors they promise to correct -
// any single flipped bit per codeword decodes to the original payload.
// 100 random payload/error patterns per scheme.
TEST(CodingProperty, CodesCorrectSingleErrorPerBlock) {
  sim::Rng rng(9300);
  struct Scheme {
    CodeScheme code;
    std::size_t block;  // coded bits per codeword
  };
  for (const Scheme& s : {Scheme{CodeScheme::kHamming74, 7},
                          Scheme{CodeScheme::kRepetition3, 3}}) {
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(rng.UniformInt(4, 64)));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
      }
      auto coded = Encode(s.code, payload);
      for (std::size_t block = 0; block + s.block <= coded.size();
           block += s.block) {
        if (rng.Chance(0.7)) {
          const std::size_t flip = block + static_cast<std::size_t>(rng.UniformInt(
                                               0, static_cast<int>(s.block) - 1));
          coded[flip] ^= 1;
        }
      }
      const auto decoded = Decode(s.code, coded);
      ASSERT_GE(decoded.size(), payload.size());
      for (std::size_t i = 0; i < payload.size(); ++i) {
        ASSERT_EQ(decoded[i], payload[i])
            << ToString(s.code) << " trial " << trial << " bit " << i;
      }
    }
  }
}

// Property: MapBits/DemapSymbols are exact inverses for every modulation
// on noiseless symbols. 100 random payloads across the constellations.
TEST(ConstellationProperty, MapDemapRoundTripsEveryModulation) {
  sim::Rng rng(9400);
  for (int trial = 0; trial < 100; ++trial) {
    for (Modulation m : AllModulations()) {
      const unsigned bps = BitsPerSymbol(m);
      const std::size_t n_symbols =
          static_cast<std::size_t>(rng.UniformInt(1, 40));
      std::vector<std::uint8_t> bits(n_symbols * bps);
      for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
      const auto symbols = MapBits(m, bits);
      ASSERT_EQ(symbols.size(), n_symbols) << ToString(m);
      EXPECT_EQ(DemapSymbols(m, symbols), bits)
          << ToString(m) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace wearlock::modem
