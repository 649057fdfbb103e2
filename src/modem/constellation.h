// Constellation mapping / de-mapping for the modulation schemes the
// paper's modem supports (§III-7): BASK, QASK (4-ASK), BPSK, QPSK, 8PSK
// and 16QAM. All constellations are normalized to unit average symbol
// energy so Eb/N0 comparisons across schemes are fair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsp/fft.h"

namespace wearlock::modem {

using dsp::Complex;

enum class Modulation { kBask, kQask, kBpsk, kQpsk, k8Psk, k16Qam };

/// All schemes in ascending modulation order (for sweeps).
const std::vector<Modulation>& AllModulations();

std::string ToString(Modulation m);
unsigned BitsPerSymbol(Modulation m);

/// A concrete symbol alphabet with Gray-coded bit labels.
class Constellation {
 public:
  /// Shared immutable instance per scheme.
  static const Constellation& Get(Modulation m);

  unsigned bits_per_symbol() const { return bits_; }
  std::size_t size() const { return points_.size(); }

  /// Complex point for a symbol index in [0, M). @throws if out of range.
  Complex Map(unsigned symbol) const;

  /// Nearest-point hard decision.
  unsigned Demap(Complex received) const;

  const std::vector<Complex>& points() const { return points_; }

 private:
  Constellation(Modulation m, std::vector<Complex> points);

  unsigned bits_;
  std::vector<Complex> points_;
};

/// Pack a bit vector (values 0/1) into constellation symbols, padding the
/// tail with zero bits. Bits are consumed MSB-first per symbol.
std::vector<Complex> MapBits(Modulation m, const std::vector<std::uint8_t>& bits);

/// Inverse of MapBits; returns symbols.size() * bits_per_symbol bits.
std::vector<std::uint8_t> DemapSymbols(Modulation m,
                                       const std::vector<Complex>& symbols);

/// Appending DemapSymbols: identical bits pushed onto `out`. Hot callers
/// reserve `out` for the whole frame so per-symbol calls never
/// reallocate.
void DemapSymbolsInto(Modulation m, std::span<const Complex> symbols,
                      std::vector<std::uint8_t>& out);

/// Soft demapping: per-bit log-likelihood ratios via the max-log
/// approximation, LLR = min_{s: bit=1} |r-s|^2 - min_{s: bit=0} |r-s|^2,
/// so positive means "bit 0 more likely", pushed onto `out`. Units are
/// squared distance (the common noise variance cancels in the soft
/// decoders).
void DemapSymbolsSoftInto(Modulation m, std::span<const Complex> symbols,
                          std::vector<double>& out);

/// Count differing bits between equal-length bit vectors.
/// @throws std::invalid_argument on length mismatch.
std::size_t CountBitErrors(const std::vector<std::uint8_t>& a,
                           const std::vector<std::uint8_t>& b);

/// Fraction of differing bits.
double BitErrorRate(const std::vector<std::uint8_t>& a,
                    const std::vector<std::uint8_t>& b);

}  // namespace wearlock::modem
