// TX path of the acoustic modem (Fig. 3, left): constellation mapping,
// pilot insertion, IFFT, cyclic prefix, preamble.
#pragma once

#include <cstdint>
#include <vector>

#include "audio/signal.h"
#include "modem/constellation.h"
#include "modem/frame.h"

namespace wearlock::modem {

struct TxFrame {
  audio::Samples samples;       ///< ready-to-emit waveform
  std::size_t n_symbols = 0;    ///< OFDM symbols carrying the payload
  std::size_t n_bits = 0;       ///< payload bits (pre-padding)
};

class Modulator {
 public:
  explicit Modulator(FrameSpec spec);

  /// Modulate a payload bit vector. Bits are padded (with zero bits, then
  /// zero-index constellation symbols) up to a whole number of OFDM
  /// symbols; the receiver discards padding because the payload length is
  /// agreed over the control channel.
  TxFrame ModulateBits(Modulation m, const std::vector<std::uint8_t>& bits) const;

  /// The RTS channel-probing frame: preamble + guard + one block pilot
  /// symbol (known values on every pilot AND data bin, nulls silent) so
  /// the receiver can estimate per-bin channel response and noise.
  TxFrame MakeProbeFrame() const;

  const FrameSpec& spec() const { return spec_; }

 private:
  FrameSpec spec_;
  audio::Samples preamble_;
  /// Precomputed at construction so the per-symbol loop carries no map
  /// churn: pilot loads, ascending data bins, and the probe symbol's
  /// all-pilot load set.
  std::vector<BinLoad> pilot_loads_;
  std::vector<std::size_t> data_bins_;
  std::vector<BinLoad> probe_loads_;
};

}  // namespace wearlock::modem
