#include "audio/microphone.h"

#include "dsp/filter.h"

namespace wearlock::audio {

MicrophoneModel::MicrophoneModel(MicrophoneSpec spec) : spec_(spec) {}

MicrophoneModel MicrophoneModel::Phone() {
  return MicrophoneModel(MicrophoneSpec{
      .lowpass_cutoff_hz = 0.0,  // effectively full band at 44.1 kHz
      .lowpass_sections = 0,
      .self_noise_spl = 8.0,
      .clip_level = 10.0,
  });
}

MicrophoneModel MicrophoneModel::Watch() {
  // 8th-order Butterworth at 6.2 kHz: ~-3 dB at cutoff, fading hard
  // through 7 kHz ("the signal fades significantly from 5kHz to 7kHz")
  // and effectively erasing 15-20 kHz - the speech-pipeline mic chain
  // resamples to 16 kHz, so near-ultrasound simply does not survive.
  return MicrophoneModel(MicrophoneSpec{
      .lowpass_cutoff_hz = 6200.0,
      .lowpass_sections = 4,
      .self_noise_spl = 12.0,
      .clip_level = 10.0,
  });
}

Samples MicrophoneModel::Capture(Samples pressure) const {
  if (spec_.lowpass_cutoff_hz > 0.0 && spec_.lowpass_sections > 0) {
    wearlock::dsp::BiquadCascade::ButterworthLowPass(
        spec_.lowpass_cutoff_hz, kSampleRate,
        static_cast<std::size_t>(spec_.lowpass_sections))
        .ProcessBlock(pressure);
  }
  Clip(pressure, spec_.clip_level);
  return pressure;
}

}  // namespace wearlock::audio
