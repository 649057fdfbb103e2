// Carrier sensing for the acoustic MAC (docs/channels.md).
//
// Air is a shared medium: N co-located WearLock pairs contend for the
// same audible OFDM band. Before emitting, the phone self-records a
// short sense window and judges the band from its spectrum - listen
// before talk. The same per-bin power vector feeds the sub-band
// reselection (merged into the probe's noise ranking), so a transmission
// that does proceed steers its data bins away from neighbor-occupied
// ones.
#pragma once

#include <cstddef>
#include <vector>

#include "audio/signal.h"
#include "modem/frame.h"

namespace wearlock::protocol {

struct CarrierSenseReport {
  bool busy = false;
  /// Loudest data-bin level (dB, arbitrary reference).
  double inband_db = -200.0;
  /// Robust floor: lower-quartile data-bin level (dB). A neighbor parks
  /// on 4-6 of the 12 data bins, so the quietest quartile stays clean
  /// even with two pairs transmitting at once.
  double floor_db = -200.0;
  /// Per-bin linear power, indexed by bin (size fft_size) - the same
  /// shape modem::SelectSubchannels ranks, so the caller can merge this
  /// into the probe's noise ranking with an element-wise max.
  std::vector<double> bin_power;
};

/// Busy when the loudest in-band data bin exceeds the robust floor
/// (lower-quartile bin) by this many dB.
inline constexpr double kMacBusyOverFloorDb = 9.0;

/// Judge one self-recorded sense window. Busy when the loudest data bin
/// sits more than kMacBusyOverFloorDb above the lower-quartile bin.
/// Pure DSP - no scene or RNG draws.
[[nodiscard]] CarrierSenseReport SenseChannel(const modem::FrameSpec& spec,
                                              const audio::Samples& capture);

}  // namespace wearlock::protocol
