#include "modem/adaptive.h"

#include <cmath>
#include <limits>
#include <vector>
#include <stdexcept>

#include "dsp/spl.h"
#include "modem/snr.h"

namespace wearlock::modem {

const std::vector<Modulation>& WearlockModes() {
  static const std::vector<Modulation> kModes = {
      Modulation::kQask, Modulation::kQpsk, Modulation::k8Psk};
  return kModes;
}

namespace {

struct CurvePoint {
  double ebn0_db;
  double ber;
};

// Measured BER-vs-Eb/N0 curves from bench/fig5_ber_ebn0 (white-noise
// channel, 0.3 m, default hardware models); regenerate that bench and
// refresh these rows whenever the receiver or the hardware models
// change. Ordered by ascending Eb/N0.
// These play the role of the paper's Fig. 5 scatter data: the adaptive
// controller reads mode thresholds off them instead of trusting textbook
// AWGN formulas, because the simulated hardware (like the real one) has
// phase-response floors.
const std::vector<CurvePoint>& MeasuredCurve(Modulation m) {
  static const std::vector<CurvePoint> kBask = {
      {2.6, 0.274}, {9.1, 0.161}, {12.5, 0.070},
      {15.2, 0.020}, {18.1, 0.0006}, {21.4, 0.0004}};
  static const std::vector<CurvePoint> kBpsk = {
      {2.3, 0.165}, {9.2, 0.055}, {12.7, 0.007},
      {15.5, 0.0015}, {18.5, 0.0005}, {21.8, 0.0002}};
  static const std::vector<CurvePoint> kQask = {
      {5.2, 0.316}, {9.2, 0.260}, {12.4, 0.165}, {15.1, 0.103},
      {18.7, 0.045}, {21.2, 0.010}, {23.6, 0.0048}, {24.5, 0.0006}};
  static const std::vector<CurvePoint> kQpsk = {
      {5.3, 0.165}, {9.5, 0.077}, {12.8, 0.030},
      {15.4, 0.008}, {19.1, 0.0030}, {22.2, 0.0005}};
  static const std::vector<CurvePoint> k8Psk = {
      {4.7, 0.250}, {7.8, 0.165}, {10.9, 0.122}, {13.6, 0.080},
      {17.5, 0.060}, {20.4, 0.050}, {24.9, 0.043}};
  static const std::vector<CurvePoint> k16Qam = {
      {3.1, 0.268}, {6.3, 0.212}, {9.5, 0.144}, {12.2, 0.094},
      {15.9, 0.062}, {19.1, 0.047}, {24.6, 0.037}};
  switch (m) {
    case Modulation::kBask: return kBask;
    case Modulation::kBpsk: return kBpsk;
    case Modulation::kQask: return kQask;
    case Modulation::kQpsk: return kQpsk;
    case Modulation::k8Psk: return k8Psk;
    case Modulation::k16Qam: return k16Qam;
  }
  throw std::invalid_argument("MeasuredCurve: unknown modulation");
}

}  // namespace

double MeasuredRequiredEbN0Db(Modulation m, double max_ber) {
  if (max_ber <= 0.0 || max_ber >= 0.5) {
    throw std::invalid_argument("MeasuredRequiredEbN0Db: max_ber in (0, 0.5)");
  }
  const auto& curve = MeasuredCurve(m);
  // Below the mode's floor the target is unreachable at any SNR.
  if (max_ber < curve.back().ber) {
    return std::numeric_limits<double>::infinity();
  }
  // Above the first point's BER, any positive SNR works; report the first
  // measured point as a conservative minimum.
  if (max_ber >= curve.front().ber) return curve.front().ebn0_db;
  // Interpolate linearly in (log10(ber), ebn0).
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (max_ber >= curve[i].ber) {
      const double y0 = std::log10(curve[i - 1].ber);
      const double y1 = std::log10(std::max(curve[i].ber, 1e-6));
      const double t = (std::log10(max_ber) - y0) / (y1 - y0);
      return curve[i - 1].ebn0_db +
             t * (curve[i].ebn0_db - curve[i - 1].ebn0_db);
    }
  }
  return curve.back().ebn0_db;
}

std::optional<Modulation> SelectModeFromSnr(const FrameSpec& spec,
                                            double snr_db,
                                            const AdaptiveConfig& config) {
  for (Modulation m : config.modes) {
    const double ebn0 = EbN0Db(spec, m, snr_db);
    const double required = MeasuredRequiredEbN0Db(m, config.max_ber);
    if (ebn0 >= required + kAdaptiveMarginDb) return m;
  }
  return std::nullopt;
}

double ProbeTxSpl(double spl_noise_db, double snr_min_db, double range_m,
                  double reference_distance_m) {
  const double loss =
      dsp::SpreadingLossDb(range_m, reference_distance_m);
  return spl_noise_db + snr_min_db + loss;
}

}  // namespace wearlock::modem
