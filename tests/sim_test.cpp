// Simulation substrate tests: RNG determinism, virtual clock, device
// profiles/energy model, wireless link latency models.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/clock.h"
#include "sim/device.h"
#include "sim/rng.h"
#include "sim/wireless.h"

namespace wearlock::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(1);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (c1.UniformInt(0, 1000000) == c2.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  const auto v = rng.GaussianVector(20000, 2.0);
  double mean = 0.0, var = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, UniformBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Clock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.Advance(12.5);
  clock.Advance(0.5);
  EXPECT_EQ(clock.now(), 13.0);
  EXPECT_THROW(clock.Advance(-1.0), std::invalid_argument);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0.0);
}

TEST(Device, ProfileOrdering) {
  // The watch is the slowest device; Nexus 6 the fastest.
  EXPECT_LT(DeviceProfile::Nexus6().compute_scale,
            DeviceProfile::GalaxyNexus().compute_scale);
  EXPECT_LT(DeviceProfile::GalaxyNexus().compute_scale,
            DeviceProfile::Moto360().compute_scale);
}

TEST(Device, ScaleAndEnergy) {
  const auto watch = DeviceProfile::Moto360();
  EXPECT_NEAR(watch.ScaleCompute(2.0), 2.0 * watch.compute_scale, 1e-9);
  // 1000 ms at 380 mW = 380 mJ.
  EXPECT_NEAR(DeviceProfile::EnergyMj(1000.0, 380.0), 380.0, 1e-9);
}

TEST(Device, HostTimerMeasuresWork) {
  const Millis t = TimeHostMs([] {
    volatile double acc = 0.0;
    for (int i = 0; i < 100000; ++i) acc = acc + std::sqrt(static_cast<double>(i));
  });
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1000.0);
  EXPECT_THROW(TimeHostMs(nullptr), std::invalid_argument);
  EXPECT_THROW(TimeHostMedianMs([] {}, 0), std::invalid_argument);
}

TEST(Wireless, WifiFasterThanBluetooth) {
  Rng rng(9);
  WirelessLink bt(LinkModel::Bluetooth(), rng.Fork());
  WirelessLink wifi(LinkModel::Wifi(), rng.Fork());
  double bt_acc = 0.0, wifi_acc = 0.0;
  for (int i = 0; i < 50; ++i) {
    bt_acc += bt.SampleMessageDelay();
    wifi_acc += wifi.SampleMessageDelay();
  }
  EXPECT_GT(bt_acc / 50.0, 2.0 * wifi_acc / 50.0);
}

TEST(Wireless, FileTransferScalesWithSize) {
  Rng rng(10);
  WirelessLink bt(LinkModel::Bluetooth(), rng.Fork());
  double small_acc = 0.0, large_acc = 0.0;
  for (int i = 0; i < 30; ++i) {
    small_acc += bt.SampleFileDelay(10'000);
    large_acc += bt.SampleFileDelay(100'000);
  }
  EXPECT_GT(large_acc, 1.5 * small_acc);
}

TEST(Wireless, DownLinkThrows) {
  Rng rng(11);
  WirelessLink link(LinkModel::Bluetooth(), rng.Fork(), /*connected=*/false);
  EXPECT_FALSE(link.connected());
  EXPECT_THROW(link.SampleMessageDelay(), std::logic_error);
  EXPECT_THROW(link.SampleFileDelay(100), std::logic_error);
  link.set_connected(true);
  EXPECT_NO_THROW(link.SampleMessageDelay());
}

}  // namespace
}  // namespace wearlock::sim
