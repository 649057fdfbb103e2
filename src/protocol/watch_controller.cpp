#include "protocol/watch_controller.h"

#include "obs/instrument.h"

namespace wearlock::protocol {

WatchController::WatchController(modem::FrameSpec frame_spec)
    : modem_(frame_spec) {}

Phase1Report WatchController::MakePhase1Report(
    std::uint64_t session_id, audio::Samples recording,
    sensors::AccelTrace sensor_trace) const {
  WL_SPAN("watch.phase1_report");
  WL_COUNT("watch.phase1_reports");
  Phase1Report report;
  report.session_id = session_id;
  report.recording = std::move(recording);
  report.sensor_trace = std::move(sensor_trace);
  return report;
}

void WatchController::ApplyPhase2Config(const Phase2Config& config) {
  modem_ = modem_.WithPlan(config.plan);
}

Phase2Report WatchController::MakePhase2Report(std::uint64_t session_id,
                                               audio::Samples recording,
                                               const Phase2Config& config,
                                               bool demodulate_locally,
                                               bool want_soft_llrs) const {
  WL_SPAN_V(span, "watch.phase2_report");
  WL_SPAN_ATTR(span, "local_demod", demodulate_locally ? 1.0 : 0.0);
  Phase2Report report;
  report.session_id = session_id;
  if (!demodulate_locally) {
    report.recording = std::move(recording);
    return report;
  }
  // Config3: the watch runs the shared DSP itself.
  WL_COUNT("watch.local_demods");
  std::optional<modem::DemodResult> result = modem_.Demodulate(
      recording, config.modulation, config.payload_bits, want_soft_llrs);
  if (result) {
    report.demodulated_bits = std::move(result->bits);
    report.demodulated_llrs = std::move(result->llrs);
  }
  return report;
}

}  // namespace wearlock::protocol
