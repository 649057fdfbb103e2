#include "sim/device.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

namespace wearlock::sim {

DeviceProfile DeviceProfile::Nexus6() {
  // 2014 flagship (Snapdragon 805). Java DSP on it runs roughly an order
  // of magnitude slower than optimized native code on a modern x86 host.
  return DeviceProfile{
      .name = "Nexus 6",
      .compute_scale = 35.0,
      .compute_power_mw = 1500.0,
      .record_power_mw = 120.0,
      .bt_power_mw = 100.0,
      .wifi_power_mw = 280.0,
  };
}

DeviceProfile DeviceProfile::GalaxyNexus() {
  // 2011 dual-core OMAP 4460; the paper's low-end phone.
  return DeviceProfile{
      .name = "Galaxy Nexus",
      .compute_scale = 170.0,
      .compute_power_mw = 1100.0,
      .record_power_mw = 110.0,
      .bt_power_mw = 90.0,
      .wifi_power_mw = 250.0,
  };
}

DeviceProfile DeviceProfile::Moto360() {
  // First-gen Moto 360: a single-core TI OMAP3 from 2010 running Android
  // Wear; by far the slowest and most energy-constrained device.
  return DeviceProfile{
      .name = "Moto 360",
      .compute_scale = 420.0,
      .compute_power_mw = 380.0,
      .record_power_mw = 60.0,
      .bt_power_mw = 70.0,
      .wifi_power_mw = 200.0,
  };
}

Millis TimeHostMs(const std::function<void()>& work) {
  if (!work) throw std::invalid_argument("TimeHostMs: null workload");
  const auto start = std::chrono::steady_clock::now();  // NOLINT(determinism)
  work();
  const auto end = std::chrono::steady_clock::now();  // NOLINT(determinism)
  return std::chrono::duration<double, std::milli>(end - start).count();
}

Millis TimeHostMedianMs(const std::function<void()>& work, int reps) {
  if (reps <= 0) throw std::invalid_argument("TimeHostMedianMs: reps must be > 0");
  std::vector<Millis> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) times.push_back(TimeHostMs(work));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace wearlock::sim
