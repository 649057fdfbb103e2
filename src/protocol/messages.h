// Control-channel message payloads exchanged between the WearLock
// controllers (the paper wraps Android Wear MessageAPI/ChannelAPI; here
// the structs document what crosses the wireless link and what only ever
// lives on one device).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "audio/signal.h"
#include "modem/constellation.h"
#include "modem/subchannel.h"
#include "sensors/trace.h"

namespace wearlock::protocol {

/// Watch -> phone after Phase 1: everything the phone needs to run the
/// filters and adapt the modem. When offloading, `recording` carries raw
/// audio; when processing locally the watch would send digests instead
/// (the simulation always ships the recording and charges the configured
/// processing site for the DSP).
struct Phase1Report {
  std::uint64_t session_id = 0;
  audio::Samples recording;         ///< watch mic, RTS window
  sensors::AccelTrace sensor_trace; ///< watch accelerometer
};

/// Phone -> watch: chosen acoustic configuration for Phase 2 (the secure
/// control-channel transfer of the sub-channel assignment the paper
/// describes in §II).
struct Phase2Config {
  std::uint64_t session_id = 0;
  modem::SubchannelPlan plan;
  modem::Modulation modulation = modem::Modulation::kQpsk;
  std::size_t payload_bits = 32;
};

/// Watch -> phone after Phase 2: the recorded OFDM data window.
struct Phase2Report {
  std::uint64_t session_id = 0;
  audio::Samples recording;
  /// Watch-side demodulated bits when processing locally (empty when the
  /// raw recording is offloaded instead).
  std::vector<std::uint8_t> demodulated_bits;
  /// Per-bit LLRs alongside the hard bits when the phone asked for soft
  /// output (resilient mode: the ARQ chase-combines these across
  /// retransmissions, docs/robustness.md). Positive = bit 0 likelier.
  std::vector<double> demodulated_llrs;
};

}  // namespace wearlock::protocol
