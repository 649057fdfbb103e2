#include "modem/constellation.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace wearlock::modem {
namespace {

constexpr double kPi = std::numbers::pi;

/// Normalize points to unit average energy.
std::vector<Complex> Normalized(std::vector<Complex> pts) {
  double energy = 0.0;
  for (const Complex& p : pts) energy += std::norm(p);
  energy /= static_cast<double>(pts.size());
  const double s = energy > 0.0 ? 1.0 / std::sqrt(energy) : 1.0;
  for (Complex& p : pts) p *= s;
  return pts;
}

std::vector<Complex> MakePoints(Modulation m) {
  switch (m) {
    case Modulation::kBask:
      // On-off keying: symbol 0 = off, symbol 1 = on.
      return Normalized({{0.0, 0.0}, {std::sqrt(2.0), 0.0}});
    case Modulation::kQask: {
      // 4-level ASK with Gray labels 00,01,11,10 on ascending amplitude.
      std::vector<Complex> pts(4);
      const double levels[4] = {0.0, 1.0, 3.0, 2.0};  // index = Gray label
      for (unsigned sym = 0; sym < 4; ++sym) pts[sym] = {levels[sym], 0.0};
      return Normalized(pts);
    }
    case Modulation::kBpsk:
      return Normalized({{1.0, 0.0}, {-1.0, 0.0}});
    case Modulation::kQpsk: {
      // Gray mapping: 00 01 11 10 counter-clockwise from 45 degrees.
      std::vector<Complex> pts(4);
      const unsigned order[4] = {0, 1, 3, 2};
      for (unsigned i = 0; i < 4; ++i) {
        const double ang = kPi / 4.0 + kPi / 2.0 * static_cast<double>(i);
        pts[order[i]] = std::polar(1.0, ang);
      }
      return Normalized(pts);
    }
    case Modulation::k8Psk: {
      std::vector<Complex> pts(8);
      const unsigned gray[8] = {0, 1, 3, 2, 6, 7, 5, 4};
      for (unsigned i = 0; i < 8; ++i) {
        const double ang = kPi / 8.0 + kPi / 4.0 * static_cast<double>(i);
        pts[gray[i]] = std::polar(1.0, ang);
      }
      return Normalized(pts);
    }
    case Modulation::k16Qam: {
      // Square 16QAM, Gray coded per axis: levels -3,-1,1,3 labelled
      // 00,01,11,10. Symbol = (I bits << 2) | Q bits.
      std::vector<Complex> pts(16);
      const double level_for_gray[4] = {-3.0, -1.0, 3.0, 1.0};
      for (unsigned ib = 0; ib < 4; ++ib) {
        for (unsigned qb = 0; qb < 4; ++qb) {
          pts[(ib << 2) | qb] = {level_for_gray[ib], level_for_gray[qb]};
        }
      }
      return Normalized(pts);
    }
  }
  throw std::invalid_argument("MakePoints: unknown modulation");
}

}  // namespace

const std::vector<Modulation>& AllModulations() {
  static const std::vector<Modulation> kAll = {
      Modulation::kBask, Modulation::kBpsk, Modulation::kQask,
      Modulation::kQpsk, Modulation::k8Psk, Modulation::k16Qam};
  return kAll;
}

std::string ToString(Modulation m) {
  switch (m) {
    case Modulation::kBask: return "BASK";
    case Modulation::kQask: return "QASK";
    case Modulation::kBpsk: return "BPSK";
    case Modulation::kQpsk: return "QPSK";
    case Modulation::k8Psk: return "8PSK";
    case Modulation::k16Qam: return "16QAM";
  }
  return "?";
}

unsigned BitsPerSymbol(Modulation m) {
  switch (m) {
    case Modulation::kBask:
    case Modulation::kBpsk: return 1;
    case Modulation::kQask:
    case Modulation::kQpsk: return 2;
    case Modulation::k8Psk: return 3;
    case Modulation::k16Qam: return 4;
  }
  return 0;
}


Constellation::Constellation(Modulation m, std::vector<Complex> points)
    : bits_(BitsPerSymbol(m)), points_(std::move(points)) {}

const Constellation& Constellation::Get(Modulation m) {
  static const Constellation kBask(Modulation::kBask, MakePoints(Modulation::kBask));
  static const Constellation kQask(Modulation::kQask, MakePoints(Modulation::kQask));
  static const Constellation kBpsk(Modulation::kBpsk, MakePoints(Modulation::kBpsk));
  static const Constellation kQpsk(Modulation::kQpsk, MakePoints(Modulation::kQpsk));
  static const Constellation k8Psk(Modulation::k8Psk, MakePoints(Modulation::k8Psk));
  static const Constellation k16Qam(Modulation::k16Qam, MakePoints(Modulation::k16Qam));
  switch (m) {
    case Modulation::kBask: return kBask;
    case Modulation::kQask: return kQask;
    case Modulation::kBpsk: return kBpsk;
    case Modulation::kQpsk: return kQpsk;
    case Modulation::k8Psk: return k8Psk;
    case Modulation::k16Qam: return k16Qam;
  }
  throw std::invalid_argument("Constellation::Get: unknown modulation");
}

Complex Constellation::Map(unsigned symbol) const {
  if (symbol >= points_.size()) {
    throw std::out_of_range("Constellation::Map: symbol out of range");
  }
  return points_[symbol];
}

unsigned Constellation::Demap(Complex received) const {
  unsigned best = 0;
  double best_d = std::norm(received - points_[0]);
  for (unsigned i = 1; i < points_.size(); ++i) {
    const double d = std::norm(received - points_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::vector<Complex> MapBits(Modulation m, const std::vector<std::uint8_t>& bits) {
  const Constellation& c = Constellation::Get(m);
  const unsigned bps = c.bits_per_symbol();
  const std::size_t n_symbols = (bits.size() + bps - 1) / bps;
  std::vector<Complex> out;
  out.reserve(n_symbols);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    unsigned sym = 0;
    for (unsigned b = 0; b < bps; ++b) {
      const std::size_t idx = s * bps + b;
      const unsigned bit = idx < bits.size() ? (bits[idx] & 1u) : 0u;
      sym = (sym << 1) | bit;
    }
    out.push_back(c.Map(sym));
  }
  return out;
}

std::vector<std::uint8_t> DemapSymbols(Modulation m,
                                       const std::vector<Complex>& symbols) {
  std::vector<std::uint8_t> bits;
  bits.reserve(symbols.size() * BitsPerSymbol(m));
  DemapSymbolsInto(m, symbols, bits);
  return bits;
}

void DemapSymbolsInto(Modulation m, std::span<const Complex> symbols,
                      std::vector<std::uint8_t>& out) {
  const Constellation& c = Constellation::Get(m);
  const unsigned bps = c.bits_per_symbol();
  for (const Complex& s : symbols) {
    const unsigned sym = c.Demap(s);
    for (unsigned b = 0; b < bps; ++b) {
      out.push_back(static_cast<std::uint8_t>((sym >> (bps - 1 - b)) & 1u));
    }
  }
}

void DemapSymbolsSoftInto(Modulation m, std::span<const Complex> symbols,
                          std::vector<double>& out) {
  const Constellation& c = Constellation::Get(m);
  const unsigned bps = c.bits_per_symbol();
  for (const Complex& r : symbols) {
    for (unsigned b = 0; b < bps; ++b) {
      const unsigned mask = 1u << (bps - 1 - b);
      double best0 = 1e30, best1 = 1e30;
      for (unsigned sym = 0; sym < c.size(); ++sym) {
        const double d = std::norm(r - c.Map(sym));
        if (sym & mask) {
          best1 = std::min(best1, d);
        } else {
          best0 = std::min(best0, d);
        }
      }
      out.push_back(best1 - best0);
    }
  }
}

std::size_t CountBitErrors(const std::vector<std::uint8_t>& a,
                           const std::vector<std::uint8_t>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("CountBitErrors: length mismatch");
  }
  std::size_t errors = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & 1u) != (b[i] & 1u)) ++errors;
  }
  return errors;
}

double BitErrorRate(const std::vector<std::uint8_t>& a,
                    const std::vector<std::uint8_t>& b) {
  if (a.empty()) return 0.0;
  return static_cast<double>(CountBitErrors(a, b)) / static_cast<double>(a.size());
}

}  // namespace wearlock::modem
