#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
/// 1-based nearest rank ceil(q n), robust to q n landing a rounding error
/// above an integer (0.99 * 1000 is 990.0000000000001 in binary).
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}
}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q, std::size_t min_beyond) {
  return samples_beyond(n, q) >= min_beyond;
}

}  // namespace perfbench
