#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace e2e {

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace e2e
