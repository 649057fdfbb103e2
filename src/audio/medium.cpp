#include "audio/medium.h"

#include "dsp/spl.h"

namespace wearlock::audio {

AcousticChannel::AcousticChannel(ChannelConfig config, sim::Rng rng)
    : config_(config),
      propagation_(config.propagation),
      ambient_(config.custom_noise ? NoiseSource(*config.custom_noise, rng.Fork())
                                   : NoiseSource(config.environment, rng.Fork())),
      rng_(std::move(rng)) {}

Samples AcousticChannel::MakeNoise(std::size_t n) {
  Samples noise = ambient_.Generate(n);
  if (jammer_) {
    MixInto(noise, jammer_->Generate(n));
  }
  // Microphone self-noise.
  const double self_rms =
      wearlock::dsp::RmsFromSpl(config_.microphone.spec().self_noise_spl);
  Samples self = rng_.GaussianVector(n, self_rms);
  MixInto(noise, self);
  return noise;
}

Reception AcousticChannel::Transmit(const Samples& signal, double volume) {
  // Speaker -> air -> receiver position, then the receive-chain phase
  // jitter (audio/noise.h).
  const Samples emitted = speaker_.Emit(signal, volume);
  const Samples at_rx = ApplyPhaseJitter(
      propagation_.Propagate(emitted, config_.distance_m), rng_);

  // Assemble the receiver's pressure field: noise everywhere, signal
  // starting after the lead-in.
  const std::size_t total =
      kLeadInSamples + at_rx.size() + kChannelLeadOutSamples;
  Samples pressure = MakeNoise(total);
  const double spl_noise = wearlock::dsp::SplOf(pressure);
  MixIntoAt(pressure, at_rx, kLeadInSamples);

  Reception r;
  r.signal_start = kLeadInSamples;
  r.spl_signal_at_rx = wearlock::dsp::SplOf(at_rx);
  r.spl_noise_at_rx = spl_noise;
  r.recording = config_.microphone.Capture(pressure);
  return r;
}

void AcousticChannel::SetJammer(std::optional<ToneJammer> jammer) {
  jammer_ = std::move(jammer);
}

}  // namespace wearlock::audio
