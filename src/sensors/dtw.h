// Dynamic time warping (paper §V, citing uWave [27]).
//
// The phone and watch accelerometer streams are not clock-aligned; DTW
// finds the best temporal alignment, so no explicit synchronization is
// needed. O(n*m) is fine: unlock traces run 50-150 samples.
#pragma once

#include <cstddef>
#include <vector>

namespace wearlock::sensors {

struct DtwOptions {
  /// Sakoe-Chiba band half-width (samples); 0 = unconstrained.
  std::size_t window = 0;
};

struct DtwResult {
  double distance = 0.0;        ///< accumulated |a-b| cost along the path
  std::size_t path_length = 0;  ///< number of alignment steps
  /// distance / path_length: the normalized score Table II reports.
  double normalized = 0.0;
};

/// DTW with absolute-difference local cost and the standard
/// (match/insert/delete) recurrence.
/// @throws std::invalid_argument if either input is empty, or the window
/// is too narrow to connect the corner cells.
DtwResult Dtw(const std::vector<double>& a, const std::vector<double>& b,
              const DtwOptions& options = {});

}  // namespace wearlock::sensors
