#include "audio/scene.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/spl.h"

namespace wearlock::audio {
namespace {

NoiseSource MakeAmbient(const SceneConfig& config, sim::Rng rng) {
  if (config.custom_noise) return NoiseSource(*config.custom_noise, std::move(rng));
  return NoiseSource(config.environment, std::move(rng));
}

/// The Tg-vs-reverberation bound (paper SIII): the speaker keeps
/// radiating for ringing_tail_s after the input stops, and the frame's
/// guard interval must exceed that "largest reverberation length" or
/// the tail smears into the first OFDM symbol. Before this check the
/// bound lived only in a speaker.h comment and an oversized tail was
/// silently absorbed into the symbols.
void ValidateGuardBudget(const SceneConfig& config) {
  const std::size_t tail =
      SamplesFromSeconds(config.phone_speaker.spec().ringing_tail_s);
  if (tail > config.guard_budget_samples) {
    throw std::invalid_argument(
        "TwoMicScene: speaker ringing tail (" + std::to_string(tail) +
        " samples) exceeds the guard interval Tg (" +
        std::to_string(config.guard_budget_samples) +
        " samples); lengthen the guard or shorten the tail");
  }
}

}  // namespace

TwoMicScene::TwoMicScene(SceneConfig config, sim::Rng rng)
    : config_(config),
      propagation_(config.propagation),
      shared_ambient_(MakeAmbient(config, rng.Fork())),
      watch_ambient_(MakeAmbient(config, rng.Fork())),
      rng_(std::move(rng)) {
  ValidateGuardBudget(config_);
}

void TwoMicScene::ArmImpairments(const ImpairmentPlan& plan, sim::Rng rng,
                                 std::size_t rx_guard_samples) {
  impairments_.emplace(plan, std::move(rng), rx_guard_samples);
}

void TwoMicScene::AdvanceTimeMs(double ms) {
  if (impairments_ && ms > 0.0) {
    impairments_->AdvanceCursor(SamplesFromSeconds(ms / 1000.0));
  }
}

void TwoMicScene::set_propagation(const PropagationSpec& spec) {
  config_.propagation = spec;
  propagation_ = PropagationModel(spec);
}

Samples TwoMicScene::MicNoise(std::size_t n, const MicrophoneModel& mic) {
  const double rms = wearlock::dsp::RmsFromSpl(mic.spec().self_noise_spl);
  return rng_.GaussianVector(n, rms);
}

SceneReception TwoMicScene::TransmitFromPhone(const Samples& signal,
                                              double volume) {
  const Samples emitted = config_.phone_speaker.Emit(signal, volume);

  // Watch side: propagate, jitter, then sit it in ambient noise.
  Samples at_watch = ApplyPhaseJitter(
      propagation_.Propagate(emitted, config_.distance_m),
      config_.phase_noise_rad, config_.phase_noise_bw_hz, rng_);
  if (impairments_) {
    // SRO/Doppler warp + room late field, as the watch's clock hears it.
    at_watch = impairments_->ApplyWatchPath(std::move(at_watch));
  }
  const std::size_t total = config_.lead_in_samples + at_watch.size() +
                            config_.lead_out_samples +
                            (impairments_ ? impairments_->rx_guard_samples() : 0);

  // A separated watch hears its own ambience; the shared stream still
  // advances, as if the phone had recorded it.
  Samples watch_pressure = SharedAmbient(total);
  if (!config_.co_located) watch_pressure = IndependentAmbient(total);
  if (jammer_) MixInto(watch_pressure, jammer_->Generate(total));
  MixInto(watch_pressure, MicNoise(total, config_.watch_mic));
  if (impairments_) {
    if (impairments_->has_neighbors()) {
      MixInto(watch_pressure, impairments_->NeighborWaveform(total));
    }
    const Samples burst =
        impairments_->MaybeBurst(total, wearlock::dsp::Rms(watch_pressure));
    if (!burst.empty()) MixInto(watch_pressure, burst);
  }
  const double watch_noise_spl = wearlock::dsp::SplOf(watch_pressure);
  MixIntoAt(watch_pressure, at_watch, config_.lead_in_samples);
  // Nothing reads the phone's self-recording of its own emission, so it
  // is not rendered; its mic-noise draws are still consumed, so every
  // later capture sees the same stream (docs/channels.md).
  rng_.SkipGaussians(total);

  if (impairments_) {
    // The watch's capture window opened early by the accumulated clock
    // offset: content slides later, the tail past the window is lost.
    watch_pressure = impairments_->ShiftCaptureWindow(
        std::move(watch_pressure), config_.lead_in_samples);
    impairments_->AdvanceCursor(total);
  }

  SceneReception r;
  r.signal_start = config_.lead_in_samples;
  r.watch_spl_signal = wearlock::dsp::SplOf(at_watch);
  r.watch_spl_noise = watch_noise_spl;
  r.watch_recording = config_.watch_mic.Capture(watch_pressure);
  return r;
}

std::pair<Samples, Samples> TwoMicScene::RecordAmbientPair(std::size_t n) {
  Samples shared = SharedAmbient(n);
  Samples phone_pressure = shared;
  MixInto(phone_pressure, MicNoise(n, config_.phone_mic));
  Samples watch_pressure = config_.co_located ? std::move(shared)
                                              : IndependentAmbient(n);
  if (jammer_) MixInto(watch_pressure, jammer_->Generate(n));
  MixInto(watch_pressure, MicNoise(n, config_.watch_mic));
  if (impairments_) {
    if (impairments_->has_neighbors()) {
      const Samples neighbor = impairments_->NeighborWaveform(n);
      MixInto(phone_pressure, neighbor);
      MixInto(watch_pressure, neighbor);
    }
    const Samples burst =
        impairments_->MaybeBurst(n, wearlock::dsp::Rms(watch_pressure));
    if (!burst.empty()) {
      MixInto(phone_pressure, burst);
      MixInto(watch_pressure, burst);
    }
    impairments_->AdvanceCursor(n);
  }
  return {config_.phone_mic.Capture(phone_pressure),
          config_.watch_mic.Capture(watch_pressure)};
}

Samples TwoMicScene::RecordAtDistance(const Samples& signal, double volume,
                                      double eavesdropper_distance_m,
                                      const PropagationSpec& path,
                                      double gain_db) {
  const Samples emitted = config_.phone_speaker.Emit(signal, volume);
  PropagationModel prop(path);
  Samples at_ear = ApplyPhaseJitter(
      prop.Propagate(emitted, eavesdropper_distance_m),
      config_.phase_noise_rad, config_.phase_noise_bw_hz, rng_);
  if (gain_db != 0.0) Scale(at_ear, std::pow(10.0, gain_db / 20.0));
  const std::size_t total =
      config_.lead_in_samples + at_ear.size() + config_.lead_out_samples;
  Samples pressure = IndependentAmbient(total);
  MixInto(pressure, MicNoise(total, config_.phone_mic));
  MixIntoAt(pressure, at_ear, config_.lead_in_samples);
  // Assume the attacker carries full-band recording gear.
  return MicrophoneModel::Phone().Capture(pressure);
}

Samples TwoMicScene::SharedAmbient(std::size_t n) {
  return shared_ambient_.Generate(n);
}

Samples TwoMicScene::IndependentAmbient(std::size_t n) {
  return watch_ambient_.Generate(n);
}

}  // namespace wearlock::audio
