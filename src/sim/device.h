// Device compute/energy profiles.
//
// The paper evaluates three Android devices: Nexus 6 (fast phone), Galaxy
// Nexus (slow phone), and the Moto 360 smartwatch. We reproduce their
// *relative* behaviour (Figs. 6, 10, 12) by scaling a host-equivalent
// cost by a per-device slowdown factor (Java/Dalvik on old mobile silicon
// vs. native code on a modern x86). Unlock sessions charge a fixed cost
// per DSP step (protocol::kDspStepHostMs), so modeled time depends on the
// seed only; the fig6, fig10 and table2 benches time the real kernels.
// Energy is modeled as power x active time.
#pragma once

#include <functional>
#include <string>

#include "sim/clock.h"

namespace wearlock::sim {

struct DeviceProfile {
  std::string name;
  /// Multiplier applied to a host-equivalent kernel cost to model this
  /// device's execution time (includes Java-vs-native overhead).
  double compute_scale = 1.0;
  /// Average power draw while computing (mW).
  double compute_power_mw = 0.0;
  /// Power draw while recording audio (mW).
  double record_power_mw = 0.0;
  /// Power draw while the Bluetooth radio is active (mW).
  double bt_power_mw = 0.0;
  /// Power draw while the WiFi radio is active (mW).
  double wifi_power_mw = 0.0;

  /// The phone in the paper's fast configuration (Config1).
  static DeviceProfile Nexus6();
  /// The low-end phone (Config2).
  static DeviceProfile GalaxyNexus();
  /// The smartwatch (Config3 runs the DSP here locally).
  static DeviceProfile Moto360();

  /// Modeled execution time (ms) on this device for work that took
  /// `host_ms` on the host.
  Millis ScaleCompute(Millis host_ms) const { return host_ms * compute_scale; }

  /// Energy (mJ) for `ms` of activity at `power_mw`.
  static double EnergyMj(Millis ms, double power_mw) {
    return power_mw * ms / 1000.0;
  }
};

/// Wall-clock timing of a callable on the host, in milliseconds: runs
/// the workload once and returns the elapsed time. A measurement, so it
/// must never feed modeled time (the modeled-time lint rule).
Millis TimeHostMs(const std::function<void()>& work);

/// Median of `reps` timed runs (robust against scheduler noise).
Millis TimeHostMedianMs(const std::function<void()>& work, int reps);

}  // namespace wearlock::sim
