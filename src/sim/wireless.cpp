#include "sim/wireless.h"

#include <cmath>
#include <stdexcept>

#include "obs/instrument.h"

namespace wearlock::sim {

LinkModel LinkModel::Bluetooth() {
  // Android Wear MessageAPI over BT LE / BR-EDR: tens-of-ms messages;
  // ChannelAPI bulk transfers crawl (~60 KB/s) with a large setup cost,
  // matching the slow BT file transfers the paper measures in Fig. 11.
  return LinkModel{
      .radio = Radio::kBluetooth,
      .message_base_ms = 70.0,
      .throughput_bytes_per_ms = 60.0,
      .file_setup_ms = 400.0,
      .jitter_sigma = 0.35,
  };
}

LinkModel LinkModel::Wifi() {
  // Same APIs routed over WiFi: ~15 ms messages, ~2 MB/s bulk.
  return LinkModel{
      .radio = Radio::kWifi,
      .message_base_ms = 15.0,
      .throughput_bytes_per_ms = 2000.0,
      .file_setup_ms = 40.0,
      .jitter_sigma = 0.25,
  };
}

WirelessLink::WirelessLink(LinkModel model, Rng rng, bool connected)
    : model_(model), rng_(std::move(rng)), connected_(connected) {}

double WirelessLink::Jitter() {
  // Lognormal multiplicative jitter with median 1.0.
  return std::exp(rng_.Gaussian(model_.jitter_sigma));
}

std::optional<Millis> WirelessLink::TrySendMessageDelay() {
  if (!connected_) {
    WL_COUNT("link.send_on_down");
    return std::nullopt;
  }
  const Millis delay = model_.message_base_ms * Jitter();
  WL_COUNT("link.messages");
  WL_HIST("link.message_ms", delay);
  return delay;
}

std::optional<Millis> WirelessLink::TrySendFileDelay(std::size_t bytes) {
  if (!connected_) {
    WL_COUNT("link.send_on_down");
    return std::nullopt;
  }
  const Millis transfer =
      static_cast<double>(bytes) / model_.throughput_bytes_per_ms;
  const Millis delay = (model_.file_setup_ms + transfer) * Jitter();
  WL_COUNT("link.transfers");
  WL_COUNT_N("link.bytes", bytes);
  WL_HIST("link.file_ms", delay);
  return delay;
}

Millis WirelessLink::SampleMessageDelay() {
  const auto delay = TrySendMessageDelay();
  if (!delay) throw std::logic_error("WirelessLink: link is down");
  return *delay;
}

Millis WirelessLink::SampleFileDelay(std::size_t bytes) {
  const auto delay = TrySendFileDelay(bytes);
  if (!delay) throw std::logic_error("WirelessLink: link is down");
  return *delay;
}

}  // namespace wearlock::sim
