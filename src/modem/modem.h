// AcousticModem: the shared TX/RX facade (the paper implements the modem
// as one common module used by both the phone and watch apps).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "modem/adaptive.h"
#include "modem/demodulator.h"
#include "modem/modulator.h"

namespace wearlock::modem {

/// Convert a 32-bit word into its bit vector (MSB first) - the OTP
/// token's on-air representation.
std::vector<std::uint8_t> BitsFromWord(std::uint32_t word);

class AcousticModem {
 public:
  /// `fine_sync_range` is the demodulator's cyclic-prefix fine-sync
  /// search range (samples).
  explicit AcousticModem(FrameSpec spec = {},
                         long fine_sync_range = kFineSyncRange);

  /// TX: data frame carrying `bits` under modulation `m`.
  TxFrame Modulate(Modulation m, const std::vector<std::uint8_t>& bits) const;

  /// TX: RTS channel-probing frame.
  TxFrame MakeProbeFrame() const;

  /// RX: recover n_bits from a recording (a non-owning view), plus
  /// their soft LLRs in the same pass when `with_llrs`.
  std::optional<DemodResult> Demodulate(std::span<const double> recording,
                                        Modulation m, std::size_t n_bits,
                                        bool with_llrs = false) const;

  /// RX: analyze an RTS probe.
  std::optional<ProbeAnalysis> AnalyzeProbe(
      std::span<const double> recording) const;

  /// Re-plan data sub-channels from probed per-bin noise and return a
  /// modem configured with the new plan (modems are cheap value types).
  AcousticModem WithSelectedSubchannels(const std::vector<double>& noise_power) const;

  /// Replace the whole plan (e.g. after the TX side receives the chosen
  /// plan over the control channel).
  AcousticModem WithPlan(const SubchannelPlan& plan) const;

  const FrameSpec& spec() const { return spec_; }

 private:
  FrameSpec spec_;
  long fine_sync_range_;
  Modulator modulator_;
  Demodulator demodulator_;
};

}  // namespace wearlock::modem
