// Microphone models.
//
// The critical hardware quirk the paper discovered: Android Wear watches
// (Moto 360) apply a mandatory low-pass filter capping useful response at
// ~7 kHz, with significant fade from 5 to 7 kHz - the mic pipeline is
// tuned for speech. This forces WearLock's phone->watch link into the
// audible 1-6 kHz band; the 15-20 kHz near-ultrasound band only works on
// a phone->phone pair whose mics are full-band.
#pragma once

#include "audio/signal.h"

namespace wearlock::audio {

struct MicrophoneSpec {
  /// -3 dB point of the built-in low-pass (Hz); <= 0 disables it.
  double lowpass_cutoff_hz = 0.0;
  /// Butterworth section count for the low-pass (2 sections = 4th order,
  /// matching the steep 5->7 kHz fade observed on the Moto 360).
  int lowpass_sections = 2;
  /// Self-noise floor SPL (dB) added by the capsule/ADC chain.
  double self_noise_spl = 10.0;
  /// ADC saturation ceiling (pressure units, matches speaker scale).
  double clip_level = 10.0;
};

class MicrophoneModel {
 public:
  explicit MicrophoneModel(MicrophoneSpec spec = {});

  /// Full-band phone microphone (records 15-20 kHz fine).
  static MicrophoneModel Phone();
  /// Android Wear watch microphone with the ~7 kHz mandatory low-pass
  /// (starts fading at 5 kHz).
  static MicrophoneModel Watch();

  /// Convert incident pressure into the recorded buffer, in its own
  /// buffer: band-limit, clip (self-noise is added by the medium which
  /// owns the RNG, see AddSelfNoise).
  Samples Capture(Samples pressure) const;

  const MicrophoneSpec& spec() const { return spec_; }

 private:
  MicrophoneSpec spec_;
};

}  // namespace wearlock::audio
