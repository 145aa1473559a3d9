// Small statistics helpers shared by the benchmark driver and its tests.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it.  `q` in (0, 100].  Empty input gives
/// {0, 0}.
Percentile PercentileOf(std::vector<double> values, double q);

/// Median by nearest rank on the lower middle for even counts averaged
/// with the upper middle (the usual definition).  Empty input gives 0.
double MedianOf(std::vector<double> values);

}  // namespace perfbench
