#pragma once

/// \file stats.hpp
/// Sample statistics the benchmark reports: medians, nearest-rank tail
/// percentiles, and the rule that a percentile is only reported when at
/// least ten samples lie beyond it.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Conventional median (mean of the two middle values for an even count);
/// NaN for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample such that at least a share
/// `q` (0 < q <= 1) of the sample is <= it.  +inf samples (failed or shed
/// operations) sort last, so they count as over any limit.  NaN when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Number of samples ranked strictly beyond the nearest-rank q-th percentile
/// of an n-sample: n - ceil(q n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// True when an n-sample supports reporting its q-th percentile: at least
/// `min_beyond` (by default ten) samples lie beyond it.  p99 needs 1000
/// samples, p50 needs 20.
[[nodiscard]] bool percentile_supported(std::size_t n, double q, std::size_t min_beyond = 10);

}  // namespace perfbench
