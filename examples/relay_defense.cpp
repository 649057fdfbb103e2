// Relay-attack counter-measures: the two defenses the paper sketches for
// its one acknowledged gap ("our current design cannot protect acoustic
// channel against sophisticated relay attack").
//
//   1. Distance bounding: sound is slow; a relay cannot beat physics.
//   2. Hardware fingerprinting: the relay's own speaker stamps a second
//      signature onto the channel.
//
// Build & run:  ./build/examples/example_relay_defense
#include <cstdio>

#include "modem/modem.h"
#include "protocol/distance_bounding.h"
#include "protocol/fingerprint.h"
#include "sim/rng.h"

int main() {
  using namespace wearlock;
  using namespace wearlock::protocol;

  sim::Rng rng(404);
  modem::FrameSpec frame;

  std::printf("=== 1. Acoustic distance bounding ===\n");
  std::printf("The phone timestamps chirp emission; the watch timestamps\n"
              "arrival over the synced BT clock. distance = c * delta_t.\n\n");
  {
    audio::SceneConfig sc;
    sc.distance_m = 0.4;
    audio::TwoMicScene scene(sc, rng.Fork());
    const auto honest =
        AcousticRangeMedian(scene, frame, 0.4, rng, /*rounds=*/5);
    std::printf("  honest unlock at 0.40 m : estimate %.2f m -> %s\n",
                honest.estimated_distance_m,
                honest.within_bound ? "ACCEPT" : "reject");

    // A relay pipes the audio to a watch in another room. Even a fast
    // digital relay adds capture + transport + re-emission latency.
    for (double relay_ms : {5.0, 20.0, 80.0}) {
      const auto relayed =
          AcousticRangeMedian(scene, frame, 0.4, rng, 5, relay_ms);
      std::printf("  relay adding %5.1f ms   : estimate %.2f m -> %s\n",
                  relay_ms, relayed.estimated_distance_m,
                  relayed.within_bound ? "ACCEPT (!)" : "reject");
    }
  }

  std::printf("\n=== 2. Speaker fingerprinting ===\n");
  std::printf("The watch enrolls the paired phone's spectral signature from\n"
              "probe-phase channel estimates, then matches every unlock.\n\n");
  {
    modem::AcousticModem modem(frame);

    // The paired phone's speaker (one ripple realization).
    audio::SceneConfig paired;
    paired.distance_m = 0.3;
    audio::TwoMicScene paired_scene(paired, rng.Fork());

    // The relay's re-emission speaker: a different unit entirely.
    audio::SceneConfig relay = paired;
    relay.phone_speaker = audio::SpeakerModel(audio::SpeakerSpec{
        .ringing_level = 0.12,
        .phase_ripple_rad = 0.3,
        .ripple_period1_hz = 780.0,
        .ripple_period2_hz = 640.0,
        .ripple_phase1_rad = 2.1,
        .ripple_phase2_rad = 4.0,
    });
    audio::TwoMicScene relay_scene(relay, rng.Fork());

    SpeakerVerifier verifier;
    auto observe = [&](audio::TwoMicScene& scene) -> std::vector<double> {
      const auto rx = scene.TransmitFromPhone(modem.MakeProbeFrame().samples, 0.3);
      const auto probe = modem.AnalyzeProbe(rx.watch_recording);
      if (!probe) return {};
      return FingerprintFeatures(probe->channel, frame.plan);
    };

    while (!verifier.enrolled()) {
      const auto features = observe(paired_scene);
      if (!features.empty()) verifier.Enroll(features);
    }
    std::printf("  enrolled the paired speaker (%zu probes)\n",
                verifier.config().enroll_count);

    for (int i = 0; i < 3; ++i) {
      const auto genuine = observe(paired_scene);
      std::printf("  genuine unlock   : similarity %.3f -> %s\n",
                  verifier.Match(genuine),
                  verifier.Accept(genuine) ? "ACCEPT" : "reject");
    }
    for (int i = 0; i < 3; ++i) {
      const auto forged = observe(relay_scene);
      std::printf("  relay's speaker  : similarity %.3f -> %s\n",
                  verifier.Match(forged),
                  verifier.Accept(forged) ? "ACCEPT (!)" : "reject");
    }
  }
  std::printf("\nBoth checks are passive add-ons to the existing probe\n"
              "phase: no new hardware, no protocol changes.\n");
  return 0;
}
