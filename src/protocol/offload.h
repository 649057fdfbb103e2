// Computation offloading (paper §V): the watch can either process
// recordings locally or ship them to the phone. Offloading to the phone
// both saves watch energy and cuts latency because the phone's CPU is an
// order of magnitude faster (Fig. 6); the transfer cost depends on the
// radio (Fig. 11).
#pragma once

#include <cstddef>
#include <string>

#include "sim/clock.h"
#include "sim/device.h"
#include "sim/wireless.h"

namespace wearlock::protocol {

enum class ProcessingSite { kWatchLocal, kOffloadToPhone };

std::string ToString(ProcessingSite site);

/// Cost of one processing step under an offload decision.
struct StepCost {
  sim::Millis compute_ms = 0.0;   ///< where the DSP ran
  sim::Millis transfer_ms = 0.0;  ///< recording upload (offload only)
  double watch_energy_mj = 0.0;
  double phone_energy_mj = 0.0;

  sim::Millis total_ms() const { return compute_ms + transfer_ms; }
};

/// Host-equivalent cost of one DSP step (probe analysis, drift tracking,
/// rate compensation, one demodulation), before the device scale. A
/// constant, not a measurement: modeled time must depend on the seed
/// only, never on how loaded the host is.
inline constexpr sim::Millis kDspStepHostMs = 1.25;

struct OffloadPlanner {
  ProcessingSite site = ProcessingSite::kOffloadToPhone;
  sim::DeviceProfile watch = sim::DeviceProfile::Moto360();
  sim::DeviceProfile phone = sim::DeviceProfile::Nexus6();

  /// Cost of running a DSP kernel that took `host_ms` on this machine,
  /// given `recording_bytes` that must move first when offloading.
  /// The transfer is sampled from `link`.
  StepCost Cost(sim::Millis host_ms, std::size_t recording_bytes,
                sim::WirelessLink& link) const;

  /// Same accounting with the transfer time supplied by the caller -
  /// the attempt machine samples the upload itself (through the fault
  /// injector, retries included, when one is armed) and only needs the
  /// energy/compute arithmetic.
  StepCost CostWithTransfer(sim::Millis host_ms, sim::Millis transfer_ms,
                            sim::Radio radio) const;
};

/// Bytes of a recording of n samples as shipped over the wire (16-bit
/// PCM, matching the paper's Android implementation).
std::size_t RecordingBytes(std::size_t n_samples);

}  // namespace wearlock::protocol
