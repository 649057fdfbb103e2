#include "audio/medium.h"

#include "dsp/spl.h"

namespace wearlock::audio {

Samples& RenderSignalPath(const Samples& signal, double volume,
                          const SpeakerModel& speaker,
                          const PropagationModel& path, double distance_m,
                          sim::Rng& rng) {
  thread_local Samples buffer;
  buffer.assign(signal.begin(), signal.end());
  buffer = ApplyPhaseJitter(
      path.Propagate(speaker.Emit(std::move(buffer), volume), distance_m), rng);
  return buffer;
}

AcousticChannel::AcousticChannel(ChannelConfig config, sim::Rng rng)
    : config_(config),
      propagation_(config.propagation),
      ambient_(config.custom_noise ? NoiseSource(*config.custom_noise, rng.Fork())
                                   : NoiseSource(config.environment, rng.Fork())),
      rng_(std::move(rng)) {}

Reception AcousticChannel::Transmit(const Samples& signal, double volume) {
  // Speaker -> air -> receiver position, then the receive-chain phase
  // jitter (audio/noise.h).
  const Samples& at_rx = RenderSignalPath(signal, volume, speaker_, propagation_,
                                          config_.distance_m, rng_);

  // Assemble the receiver's pressure field: noise everywhere, signal
  // starting after the lead-in.
  const std::size_t total =
      kLeadInSamples + at_rx.size() + kChannelLeadOutSamples;
  Samples pressure = ambient_.Generate(Samples(total));
  if (jammer_) MixInto(pressure, jammer_->Generate(total));
  pressure = AddSelfNoise(std::move(pressure), config_.microphone, rng_);
  const double spl_noise = wearlock::dsp::SplOf(pressure);
  MixIntoAt(pressure, at_rx, kLeadInSamples);

  Reception r;
  r.signal_start = kLeadInSamples;
  r.spl_signal_at_rx = wearlock::dsp::SplOf(at_rx);
  r.spl_noise_at_rx = spl_noise;
  r.recording = config_.microphone.Capture(std::move(pressure));
  return r;
}

void AcousticChannel::SetJammer(std::optional<ToneJammer> jammer) {
  jammer_ = std::move(jammer);
}

}  // namespace wearlock::audio
