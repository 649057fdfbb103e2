// Watch-side WearLock controller: "a thin client, which cooperates with
// the smartphone controller" (paper §II). It records audio on request,
// samples its accelerometer, and either uploads raw recordings (offload)
// or runs the shared modem code locally.
#pragma once

#include <cstdint>

#include "modem/modem.h"
#include "protocol/messages.h"

namespace wearlock::protocol {

class WatchController {
 public:
  explicit WatchController(modem::FrameSpec frame_spec);

  /// Phase 1 response: wraps the recording captured by the scene plus the
  /// current accelerometer window.
  Phase1Report MakePhase1Report(std::uint64_t session_id,
                                audio::Samples recording,
                                sensors::AccelTrace sensor_trace) const;

  /// Phase 2 response. When `demodulate_locally`, the watch runs the
  /// shared demodulator itself (Config3 in the paper) and the report
  /// carries bits; the caller charges that step to this device's
  /// profile. With `want_soft_llrs` the same pass also ships per-bit
  /// LLRs for the phone's chase combiner (resilient mode only - plain
  /// sessions skip the soft demapper).
  Phase2Report MakePhase2Report(std::uint64_t session_id,
                                audio::Samples recording,
                                const Phase2Config& config,
                                bool demodulate_locally,
                                bool want_soft_llrs = false) const;

  /// Reconfigure the shared modem for Phase 2 (plan arrives over the
  /// control channel).
  void ApplyPhase2Config(const Phase2Config& config);

 private:
  modem::AcousticModem modem_;
};

}  // namespace wearlock::protocol
