#include "modem/modem.h"

namespace wearlock::modem {

std::vector<std::uint8_t> BitsFromWord(std::uint32_t word) {
  std::vector<std::uint8_t> bits(32);
  for (int i = 0; i < 32; ++i) {
    bits[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((word >> (31 - i)) & 1u);
  }
  return bits;
}

AcousticModem::AcousticModem(FrameSpec spec, long fine_sync_range)
    : spec_(spec),
      fine_sync_range_(fine_sync_range),
      modulator_(spec),
      demodulator_(spec, fine_sync_range) {}

TxFrame AcousticModem::Modulate(Modulation m,
                                const std::vector<std::uint8_t>& bits) const {
  return modulator_.ModulateBits(m, bits);
}

TxFrame AcousticModem::MakeProbeFrame() const {
  return modulator_.MakeProbeFrame();
}

std::optional<DemodResult> AcousticModem::Demodulate(
    std::span<const double> recording, Modulation m, std::size_t n_bits,
    bool with_llrs) const {
  return demodulator_.Demodulate(recording, m, n_bits, with_llrs);
}

std::optional<ProbeAnalysis> AcousticModem::AnalyzeProbe(
    std::span<const double> recording) const {
  return demodulator_.AnalyzeProbe(recording);
}

AcousticModem AcousticModem::WithSelectedSubchannels(
    const std::vector<double>& noise_power) const {
  FrameSpec spec = spec_;
  spec.plan = SelectSubchannels(spec_.plan, noise_power);
  return AcousticModem(spec, fine_sync_range_);
}

AcousticModem AcousticModem::WithPlan(const SubchannelPlan& plan) const {
  FrameSpec spec = spec_;
  spec.plan = plan;
  return AcousticModem(spec, fine_sync_range_);
}

}  // namespace wearlock::modem
