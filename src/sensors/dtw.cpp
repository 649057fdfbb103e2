#include "sensors/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wearlock::sensors {

DtwResult Dtw(const std::vector<double>& a, const std::vector<double>& b,
              const DtwOptions& options) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("Dtw: empty input");
  }
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (options.window > 0) {
    const std::size_t diag_gap = n > m ? n - m : m - n;
    if (options.window < diag_gap) {
      throw std::invalid_argument("Dtw: window narrower than length gap");
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // cost[i][j]: best accumulated cost aligning a[0..i) with b[0..j).
  std::vector<std::vector<double>> cost(n + 1,
                                        std::vector<double>(m + 1, kInf));
  std::vector<std::vector<std::size_t>> steps(
      n + 1, std::vector<std::size_t>(m + 1, 0));
  cost[0][0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    std::size_t j_lo = 1, j_hi = m;
    if (options.window > 0) {
      const long center =
          static_cast<long>(i) * static_cast<long>(m) / static_cast<long>(n);
      j_lo = static_cast<std::size_t>(
          std::max(1L, center - static_cast<long>(options.window)));
      j_hi = static_cast<std::size_t>(std::min(
          static_cast<long>(m), center + static_cast<long>(options.window)));
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double local = std::abs(a[i - 1] - b[j - 1]);
      double best = cost[i - 1][j - 1];
      std::size_t best_steps = steps[i - 1][j - 1];
      if (cost[i - 1][j] < best) {
        best = cost[i - 1][j];
        best_steps = steps[i - 1][j];
      }
      if (cost[i][j - 1] < best) {
        best = cost[i][j - 1];
        best_steps = steps[i][j - 1];
      }
      if (best == kInf) continue;
      cost[i][j] = best + local;
      steps[i][j] = best_steps + 1;
    }
  }
  if (cost[n][m] == kInf) {
    throw std::invalid_argument("Dtw: no path within window");
  }
  DtwResult r;
  r.distance = cost[n][m];
  r.path_length = steps[n][m];
  r.normalized = r.path_length > 0
                     ? r.distance / static_cast<double>(r.path_length)
                     : 0.0;
  return r;
}

}  // namespace wearlock::sensors
