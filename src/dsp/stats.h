// Small statistics helpers used by the evaluation harness:
// summary statistics, percentiles, and the logarithmic trend fit the
// paper uses for Fig. 5's BER-vs-Eb/N0 curves.
#pragma once

#include <cstddef>
#include <vector>

namespace wearlock::dsp {

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  std::size_t count = 0;
};

/// Mean/stddev (population), min/max/median. @throws if empty.
Summary Summarize(const std::vector<double>& xs);

struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Ordinary least squares y = slope*x + intercept. @throws if sizes
/// differ or fewer than two points.
LinearFit FitLinear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace wearlock::dsp
