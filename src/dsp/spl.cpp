#include "dsp/spl.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace wearlock::dsp {

double Rms(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return std::sqrt(acc / static_cast<double>(x.size()));
}

double SplFromRms(double rms) {
  if (rms < 0.0) throw std::invalid_argument("SplFromRms: negative rms");
  if (rms == 0.0) return -std::numeric_limits<double>::infinity();
  return 20.0 * std::log10(rms / kReferencePressure);
}

double SplOf(const std::vector<double>& x) { return SplFromRms(Rms(x)); }

double RmsFromSpl(double spl_db) {
  return kReferencePressure * std::pow(10.0, spl_db / 20.0);
}

double SpreadingLossDb(double distance_m, double reference_distance_m,
                       double geometric_constant) {
  if (distance_m <= 0.0 || reference_distance_m <= 0.0) {
    throw std::invalid_argument("SpreadingLossDb: distances must be positive");
  }
  return 20.0 * geometric_constant * std::log10(distance_m / reference_distance_m);
}

double EbN0FromSnrDb(double snr_db, double bandwidth_hz, double bit_rate_bps) {
  if (bandwidth_hz <= 0.0 || bit_rate_bps <= 0.0) {
    throw std::invalid_argument("EbN0FromSnrDb: bandwidth and rate must be positive");
  }
  return snr_db + 10.0 * std::log10(bandwidth_hz / bit_rate_bps);
}

}  // namespace wearlock::dsp
