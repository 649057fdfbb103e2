// Adaptive modulation (paper §III-7).
//
// Unlike classic rate-maximizing adaptation, WearLock picks the mode that
// keeps BER under a target MaxBER at the *intended* receiver while the
// natural propagation loss pushes any farther eavesdropper past that BER.
// Higher-order modes are preferred when SNR allows: packets get shorter
// and the secure radius shrinks.
#pragma once

#include <optional>
#include <vector>

#include "modem/constellation.h"
#include "modem/frame.h"

namespace wearlock::modem {

/// The three transmission modes WearLock ships (16QAM was found unusable
/// on real audio hardware; BASK/BPSK are kept for benchmarks only).
const std::vector<Modulation>& WearlockModes();

/// Minimum Eb/N0 (dB) at which `m` meets `max_ber` on the *measured*
/// channel - the direct analogue of reading thresholds off Fig. 5.
/// Calibrated from bench/fig5_ber_ebn0 on the simulated hardware (which,
/// like the paper's, has error floors: 8PSK bottoms out near BER 0.04 and
/// 16QAM is unusable for tight targets). Returns +infinity when the mode
/// cannot reach max_ber at any SNR.
double MeasuredRequiredEbN0Db(Modulation m, double max_ber);

/// The protocol's target BER bound (the MaxBER line of Fig. 5) before
/// any relaxation.
inline constexpr double kMaxBer = 0.1;
/// Headroom added to the measured requirement (probing noise, channel
/// drift between RTS and data phases).
inline constexpr double kAdaptiveMarginDb = 2.0;

struct AdaptiveConfig {
  /// Target BER bound.
  double max_ber = kMaxBer;
  /// Candidate modes, preferred first. Defaults to {8PSK, QPSK, QASK}.
  std::vector<Modulation> modes{Modulation::k8Psk, Modulation::kQpsk,
                                Modulation::kQask};
};

/// Pick the highest-order mode whose required Eb/N0 (plus
/// kAdaptiveMarginDb) fits the measured carrier SNR, converted into each
/// candidate's own Eb/N0 (the data rate R differs per mode, so the same
/// SNR buys different Eb/N0); nullopt if even the most robust candidate
/// does not fit (caller aborts or re-probes at higher volume).
std::optional<Modulation> SelectModeFromSnr(const FrameSpec& spec,
                                            double snr_db,
                                            const AdaptiveConfig& config = {});

/// Probing transmit SPL: loud enough that a receiver anywhere within
/// `range_m` still clears `snr_min_db` over the ambient noise
/// (paper: SPLtx - 20 log10(range/d0) - SPLnoise > SNRmin).
double ProbeTxSpl(double spl_noise_db, double snr_min_db, double range_m,
                  double reference_distance_m);

}  // namespace wearlock::modem
