// Sub-channel planning: which FFT bins carry data, pilots, and which are
// intentionally left null (for the Eq. 3 noise estimate), plus the
// noise-ranked sub-channel selection of §III-7 "Channel probing and
// sub-channel selection".
//
// Bin indexing is 1-based to match the paper ("We index our channels from
// 1-256"); bin k sits at k * Fs / N Hz.
#pragma once

#include <cstddef>
#include <vector>

namespace wearlock::modem {

struct SubchannelPlan {
  std::size_t fft_size = 256;
  double sample_rate_hz = 44100.0;
  /// Bins carrying payload symbols (paper default: 12 bins).
  std::vector<std::size_t> data;
  /// Equal-spaced unit-power pilot bins (paper default: 8 bins).
  std::vector<std::size_t> pilots;
  /// In-band bins deliberately kept silent; used as the null set N of the
  /// pilot-SNR estimator.
  std::vector<std::size_t> nulls;

  /// Paper defaults for the audible 1-6 kHz phone->watch band:
  /// data {16,17,18,20,21,22,24,25,26,28,29,30},
  /// pilots {7,11,15,19,23,27,31,35}, remaining in-band bins null.
  static SubchannelPlan Audible();

  /// The same assignment "shifted with higher index" into the 15-20 kHz
  /// near-ultrasound band used by the phone->phone pair (shift +80 bins).
  static SubchannelPlan NearUltrasound();

  double bin_hz() const { return sample_rate_hz / static_cast<double>(fft_size); }
  double FrequencyOfBin(std::size_t bin) const {
    return static_cast<double>(bin) * bin_hz();
  }

  /// Occupied bandwidth (Hz) spanned by pilot+data bins.
  double OccupiedBandwidthHz() const;

  /// Validity: non-empty disjoint sets, all bins within (0, N/2).
  /// @throws std::invalid_argument describing the first violation.
  void Validate() const;

  bool IsData(std::size_t bin) const;
  bool IsPilot(std::size_t bin) const;
};

/// Noise-ranked data-bin selection. Given per-bin noise power from a
/// probing round, re-picks `plan.data.size()` data bins from the
/// candidate pool (in-band bins that are not pilots), ordered primarily
/// by ascending noise power and secondarily by ascending frequency -
/// "from low frequency to high frequency, and from low noise power to
/// high noise power". Bins left over become nulls.
///
/// @param noise_power  indexed by bin (size >= fft_size/2); linear power.
/// @param quantize_db  noise levels within this many dB are treated as
///        equal so the frequency preference can kick in (default 3 dB).
SubchannelPlan SelectSubchannels(const SubchannelPlan& plan,
                                 const std::vector<double>& noise_power,
                                 double quantize_db = 3.0);

}  // namespace wearlock::modem
