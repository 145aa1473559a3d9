#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  out.value = values[index];
  return out;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
