// Bluetooth / WiFi control-channel latency models.
//
// WearLock uses the wireless link as a secure control channel: RTS/CTS
// configuration messages, sensor payloads, and (when offloading) recorded
// audio uploads. Fig. 11 measures message and file-transfer delay for BT
// and WiFi; this model reproduces those distributions with a
// base-latency + size/throughput + lognormal-jitter form.
#pragma once

#include <cstddef>
#include <optional>

#include "sim/clock.h"
#include "sim/rng.h"

namespace wearlock::sim {

enum class Radio { kBluetooth, kWifi };

struct LinkModel {
  Radio radio = Radio::kBluetooth;
  /// One-way small-message base latency (ms).
  Millis message_base_ms = 0.0;
  /// Effective payload throughput for bulk transfers (bytes/ms).
  double throughput_bytes_per_ms = 1.0;
  /// Per-transfer fixed setup cost for channel/file API transfers (ms).
  Millis file_setup_ms = 0.0;
  /// Lognormal jitter sigma (applied multiplicatively, median 1.0).
  double jitter_sigma = 0.2;

  /// Android Wear MessageAPI over Bluetooth (paper's Config2 transport).
  static LinkModel Bluetooth();
  /// MessageAPI/ChannelAPI over WiFi (paper's Config1 transport).
  static LinkModel Wifi();
};

/// A point-to-point phone<->watch link with deterministic pseudo-random
/// jitter. Also tracks whether the link is up at all: WearLock's first
/// filter is "no Bluetooth link => stay locked".
class WirelessLink {
 public:
  WirelessLink(LinkModel model, Rng rng, bool connected = true);

  bool connected() const { return connected_; }
  void set_connected(bool connected) { connected_ = connected; }
  Radio radio() const { return model_.radio; }

  /// Outcome-returning send APIs: nullopt when the link is down (a
  /// defined protocol condition - disconnects mid-unlock are an
  /// expected channel state, not a programming error). No jitter is
  /// consumed from the rng on a down link, so a flap-and-recover
  /// sequence draws exactly the same stream as an always-up link.
  [[nodiscard]] std::optional<Millis> TrySendMessageDelay();
  [[nodiscard]] std::optional<Millis> TrySendFileDelay(std::size_t bytes);

  /// Sampled one-way latency (ms) for a short control message.
  /// Throwing shim over TrySendMessageDelay for legacy callers that
  /// check connected() themselves.
  /// @throws std::logic_error if the link is down.
  Millis SampleMessageDelay();

  /// Sampled latency (ms) to move `bytes` of bulk payload (e.g. a
  /// recorded audio clip being offloaded).
  /// @throws std::logic_error if the link is down.
  Millis SampleFileDelay(std::size_t bytes);

 private:
  double Jitter();

  LinkModel model_;
  Rng rng_;
  bool connected_;
};

}  // namespace wearlock::sim
