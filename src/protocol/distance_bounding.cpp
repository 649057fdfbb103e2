#include "protocol/distance_bounding.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "modem/detector.h"
#include "sim/adversary.h"

namespace wearlock::protocol {

RangingResult AcousticRange(audio::TwoMicScene& scene,
                            const modem::FrameSpec& frame_spec, double volume,
                            sim::Rng& rng, double relay_delay_ms,
                            const AcousticSplice* splice) {
  RangingResult result;

  // The phone emits the bare chirp; both sides record. A spliced path
  // (relay attack) substitutes the attacker's rendering but keeps the
  // scene's alignment convention - emission time zero at lead_in.
  const audio::Samples chirp = modem::MakePreamble(frame_spec);
  audio::Samples watch_recording;
  std::size_t signal_start = 0;
  if (splice != nullptr && *splice) {
    watch_recording = (*splice)(chirp, volume);
    signal_start = audio::kLeadInSamples;
  } else {
    audio::SceneReception rx = scene.TransmitFromPhone(chirp, volume);
    watch_recording = std::move(rx.watch_recording);
    signal_start = rx.signal_start;
  }

  const modem::PreambleDetector detector(frame_spec);
  const auto detection = detector.Detect(watch_recording);
  if (!detection) return result;
  result.chirp_detected = true;

  // The watch knows when its recording began relative to the (BT-synced)
  // shared clock; arrival time = recording start + sample offset.
  const double arrival_ms =
      static_cast<double>(detection->preamble_start - signal_start) /
          audio::kSampleRate * 1000.0 +
      relay_delay_ms + rng.Gaussian(kClockSyncErrorStdMs) +
      rng.Gaussian(kDetectionJitterStdMs);

  result.estimated_distance_m =
      std::max(0.0, arrival_ms / 1000.0 * sim::kSpeedOfSoundMps);
  result.within_bound = result.estimated_distance_m <= kMaxRangingDistanceM;
  return result;
}

RangingResult AcousticRangeMedian(audio::TwoMicScene& scene,
                                  const modem::FrameSpec& frame_spec,
                                  double volume, sim::Rng& rng, int rounds,
                                  double relay_delay_ms,
                                  const AcousticSplice* splice) {
  RangingResult result;
  std::vector<double> estimates;
  for (int i = 0; i < rounds; ++i) {
    const RangingResult one = AcousticRange(scene, frame_spec, volume, rng,
                                            relay_delay_ms, splice);
    if (one.chirp_detected) estimates.push_back(one.estimated_distance_m);
  }
  if (estimates.empty()) return result;
  result.chirp_detected = true;
  std::sort(estimates.begin(), estimates.end());
  result.estimated_distance_m = estimates[estimates.size() / 2];
  result.within_bound = result.estimated_distance_m <= kMaxRangingDistanceM;
  return result;
}

}  // namespace wearlock::protocol
