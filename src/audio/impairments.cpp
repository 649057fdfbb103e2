#include "audio/impairments.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "dsp/filter.h"
#include "dsp/resample.h"
#include "dsp/spl.h"
#include "obs/instrument.h"
#include "obs/json.h"
#include "sim/adversary.h"
#include "sim/spec_number.h"

namespace wearlock::audio {
namespace {

constexpr double kPi = std::numbers::pi;

/// Direct-to-reverberant ratio of the parametric late field (dB). Small
/// rooms at sub-metre range keep the direct path well above the tail;
/// what hurts the modem is the tail *beyond* the cyclic prefix.
constexpr double kDirectToReverbDb = 9.0;
/// The late field starts after this pre-delay (first reflections are
/// already in the PropagationSpec taps).
constexpr double kReverbPredelayS = 0.004;

/// Bins a neighboring WearLock pair parks on: the Audible() default
/// data set (neighbors run the same stack we do). Kept as literals so
/// the audio layer stays below modem in the layer DAG.
constexpr std::size_t kNeighborCandidateBins[] = {16, 17, 18, 20, 21, 22,
                                                  24, 25, 26, 28, 29, 30};
constexpr std::size_t kNeighborFftSize = 256;

using sim::ParseSpecNumber;
constexpr char kGrammar[] = "ImpairmentPlan";

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

}  // namespace

bool ImpairmentPlan::empty() const {
  return sro_ppm == 0.0 && doppler_mps == 0.0 && reverb_rt60_ms == 0.0 &&
         burst_p == 0.0 && pairs == 0;
}

ImpairmentPlan ImpairmentPlan::Parse(const std::string& spec) {
  ImpairmentPlan plan;
  plan.spec = spec;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("ImpairmentPlan: expected key=value, got '" +
                                  entry + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "sro") {
      plan.sro_ppm = ParseSpecNumber(kGrammar, entry, value);
      if (plan.sro_ppm < 0.0 || plan.sro_ppm > 500.0) {
        throw std::invalid_argument(
            "ImpairmentPlan: sro ppm out of [0,500] in '" + entry + "'");
      }
    } else if (key == "doppler") {
      plan.doppler_mps = ParseSpecNumber(kGrammar, entry, value);
      if (std::abs(plan.doppler_mps) > 5.0) {
        throw std::invalid_argument(
            "ImpairmentPlan: |doppler| > 5 m/s in '" + entry + "'");
      }
    } else if (key == "reverb") {
      plan.reverb_rt60_ms = ParseSpecNumber(kGrammar, entry, value);
      if (plan.reverb_rt60_ms < 0.0 || plan.reverb_rt60_ms > 2000.0) {
        throw std::invalid_argument(
            "ImpairmentPlan: reverb RT60 out of [0,2000] ms in '" + entry +
            "'");
      }
    } else if (key == "burst") {
      std::string p = value;
      const std::size_t x = value.find('x');
      if (x != std::string::npos) {
        p = value.substr(0, x);
        plan.burst_mult = ParseSpecNumber(kGrammar, entry, value.substr(x + 1));
        if (plan.burst_mult < 1.0) {
          throw std::invalid_argument(
              "ImpairmentPlan: burst multiplier must be >= 1 in '" + entry +
              "'");
        }
      }
      plan.burst_p = ParseSpecNumber(kGrammar, entry, p);
      if (plan.burst_p < 0.0 || plan.burst_p > 1.0) {
        throw std::invalid_argument(
            "ImpairmentPlan: burst probability out of [0,1] in '" + entry +
            "'");
      }
    } else if (key == "pairs") {
      const double n = ParseSpecNumber(kGrammar, entry, value);
      if (n < 0.0 || n > 64.0 || n != std::floor(n)) {
        throw std::invalid_argument(
            "ImpairmentPlan: pairs must be an integer in [0,64] in '" + entry +
            "'");
      }
      plan.pairs = static_cast<std::size_t>(n);
    } else {
      throw std::invalid_argument("ImpairmentPlan: unknown key '" + key + "'");
    }
  }
  return plan;
}

std::string ChannelTraceJsonl(const std::vector<ChannelEvent>& events) {
  std::string out;
  for (const ChannelEvent& e : events) {
    out += "{\"at_ms\":" + obs::JsonNumber(e.at_ms) + ",\"channel\":\"" +
           obs::JsonEscape(e.kind) + "\",\"detail\":\"" +
           obs::JsonEscape(e.detail) + "\"}\n";
  }
  return out;
}

bool NeighborTransmitter::ActiveAt(std::size_t t) const {
  if (period_samples == 0) return false;
  return (t + offset_samples) % period_samples < on_samples;
}

ChannelImpairments::ChannelImpairments(ImpairmentPlan plan, sim::Rng rng,
                                       std::size_t rx_guard_samples)
    : plan_(std::move(plan)), rng_(std::move(rng)), rx_guard_(rx_guard_samples) {
  // Fixed draw order - (1) reverb tail, (2) neighbor schedules - so a
  // plan field toggles its own draws without shifting the others' only
  // when *later* in this sequence; the order is part of the replay
  // contract (docs/channels.md).
  warp_rate_ = (1.0 + plan_.sro_ppm * 1e-6) /
               (1.0 + plan_.doppler_mps / sim::kSpeedOfSoundMps);
  window_shift_ = static_cast<std::size_t>(
      std::llround(plan_.sro_ppm * 1e-6 * kClockAgeS * kSampleRate));
  Record("impairments-armed",
         plan_.spec.empty() ? std::string("<fields>") : plan_.spec);
  if (window_shift_ > 0) {
    Record("sro-window-shift",
           Fmt("shift=%.0f samples, guard=%.0f", double(window_shift_),
               double(rx_guard_)));
  }
  if (warp_rate_ != 1.0) {
    Record("warp", Fmt("rate=%.1f ppm", (warp_rate_ - 1.0) * 1e6));
  }

  if (plan_.reverb_rt60_ms > 0.0) {
    // Parametric late field: dense Gaussian tail under an exponential
    // -60 dB/RT60 envelope, energy-normalized to kDirectToReverbDb
    // below the (unit) direct path. Rendered once per scene so every
    // capture sees the same room.
    const double rt60_s = plan_.reverb_rt60_ms / 1000.0;
    const std::size_t predelay = SamplesFromSeconds(kReverbPredelayS);
    // The tail is rendered until it decays 60 dB (one RT60), capped so
    // the convolution stays affordable at the RT60 grammar maximum.
    const std::size_t tail = SamplesFromSeconds(std::min(rt60_s, 0.6));
    reverb_ir_.assign(predelay + tail, 0.0);
    reverb_ir_[0] = 1.0;  // direct path (taps model the early part)
    Samples noise = rng_.GaussianVector(tail);
    double energy = 0.0;
    for (std::size_t i = 0; i < tail; ++i) {
      const double t = static_cast<double>(i) / kSampleRate;
      noise[i] *= std::pow(10.0, -3.0 * t / rt60_s);
      energy += noise[i] * noise[i];
    }
    const double target = std::pow(10.0, -kDirectToReverbDb / 10.0);
    const double gain = energy > 0.0 ? std::sqrt(target / energy) : 0.0;
    for (std::size_t i = 0; i < tail; ++i) {
      reverb_ir_[predelay + i] = noise[i] * gain;
    }
    Record("reverb-armed", Fmt("rt60=%.0f ms, ir=%.0f taps",
                               plan_.reverb_rt60_ms,
                               static_cast<double>(reverb_ir_.size())));
  }

  neighbors_.reserve(plan_.pairs);
  constexpr std::size_t kCandidates =
      sizeof(kNeighborCandidateBins) / sizeof(kNeighborCandidateBins[0]);
  for (std::size_t p = 0; p < plan_.pairs; ++p) {
    NeighborTransmitter tx;
    const std::size_t n_bins =
        4 + static_cast<std::size_t>(rng_.UniformInt(0, 2));
    std::vector<std::size_t> pool(kNeighborCandidateBins,
                                  kNeighborCandidateBins + kCandidates);
    for (std::size_t b = 0; b < n_bins; ++b) {
      const std::size_t pick =
          static_cast<std::size_t>(rng_.UniformInt(0, pool.size() - 1));
      tx.bins.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    std::sort(tx.bins.begin(), tx.bins.end());
    tx.period_samples = SamplesFromSeconds(rng_.Uniform(1.2, 2.2));
    tx.on_samples = static_cast<std::size_t>(
        static_cast<double>(tx.period_samples) * rng_.Uniform(0.25, 0.45));
    tx.offset_samples = static_cast<std::size_t>(
        rng_.UniformInt(0, tx.period_samples - 1));
    tx.spl_db = rng_.Uniform(52.0, 62.0);
    for (std::size_t b = 0; b < tx.bins.size(); ++b) {
      tx.phases.push_back(rng_.Uniform(0.0, 2.0 * kPi));
    }
    std::string bins;
    for (std::size_t bin : tx.bins) bins += std::to_string(bin) + " ";
    Record("neighbor-armed",
           "pair " + std::to_string(p) + ": bins " + bins +
               Fmt("spl=%.1f dB, duty=%.2f", tx.spl_db,
                   static_cast<double>(tx.on_samples) /
                       static_cast<double>(tx.period_samples)));
    neighbors_.push_back(std::move(tx));
  }
}

void ChannelImpairments::Record(const std::string& kind,
                                const std::string& detail) {
  events_.push_back(
      {kind, detail, 1000.0 * static_cast<double>(cursor_) / kSampleRate});
  WL_COUNT("impairments." + kind);
}

void ChannelImpairments::RecordEvent(const std::string& kind,
                                     const std::string& detail, double at_ms) {
  events_.push_back({kind, detail, at_ms});
  WL_COUNT("impairments." + kind);
}

Samples ChannelImpairments::ApplyWatchPath(Samples at_watch) {
  if (warp_rate_ != 1.0) {
    at_watch = dsp::WarpTimeSinc(at_watch, warp_rate_);
  }
  if (!reverb_ir_.empty()) {
    at_watch = dsp::Convolve(std::move(at_watch), reverb_ir_);
  }
  return at_watch;
}

Samples ChannelImpairments::ShiftCaptureWindow(
    Samples rendered, std::size_t ambient_head_samples) {
  if (window_shift_ == 0 || rendered.empty()) return rendered;
  const std::size_t n = rendered.size();
  const std::size_t shift = std::min(window_shift_, n);
  Samples out(n, 0.0);
  // Head: the watch's window opened `shift` samples before the scene's
  // nominal start. We have no pre-render ambience, so tile the
  // rendering's own signal-free lead-in over the gap - never the signal
  // region, which would duplicate the frame head into the capture.
  const std::size_t tile = std::min(ambient_head_samples, n);
  if (tile > 0) {
    for (std::size_t i = 0; i < shift; ++i) out[i] = rendered[i % tile];
  }
  // Body: content lands `shift` samples late; whatever ran past the
  // window's end is gone - the truncation the RX guard exists to
  // absorb. shift == n leaves the all-ambience head: the whole frame
  // ran past a window this badly misaligned.
  std::copy(rendered.begin(),
            rendered.end() - static_cast<std::ptrdiff_t>(shift),
            out.begin() + static_cast<std::ptrdiff_t>(shift));
  return out;
}

Samples ChannelImpairments::MaybeBurst(std::size_t n, double ambient_rms) {
  if (plan_.burst_p <= 0.0 || n == 0) return {};
  if (!rng_.Chance(plan_.burst_p)) return {};
  const double start_frac = rng_.Uniform(0.0, 0.8);
  const double len_s = rng_.Uniform(0.05, 0.25);
  const std::size_t start =
      static_cast<std::size_t>(start_frac * static_cast<double>(n));
  const std::size_t len = std::min(SamplesFromSeconds(len_s), n - start);
  Samples out(n, 0.0);
  rng_.FillGaussian(std::span(out).subspan(start, len),
                    ambient_rms * plan_.burst_mult);
  Record("burst", Fmt("at=+%.0f samples, %.0f samples long",
                      static_cast<double>(start), static_cast<double>(len)));
  return out;
}

Samples ChannelImpairments::NeighborWaveform(std::size_t n) const {
  Samples out(n, 0.0);
  for (const NeighborTransmitter& tx : neighbors_) {
    if (tx.bins.empty()) continue;
    const double rms = wearlock::dsp::RmsFromSpl(tx.spl_db);
    const double amp =
        rms * std::numbers::sqrt2 / std::sqrt(static_cast<double>(tx.bins.size()));
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t t = cursor_ + i;
      if (!tx.ActiveAt(t)) continue;
      double s = 0.0;
      for (std::size_t b = 0; b < tx.bins.size(); ++b) {
        const double f = static_cast<double>(tx.bins[b]) * kSampleRate /
                         static_cast<double>(kNeighborFftSize);
        s += amp * std::sin(2.0 * kPi * f * static_cast<double>(t) /
                                kSampleRate +
                            tx.phases[b]);
      }
      out[i] += s;
    }
  }
  return out;
}

}  // namespace wearlock::audio
