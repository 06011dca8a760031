// Small statistics toolkit used by the timing primitive (median filtering,
// threshold calibration) and the benchmark reporters.
#pragma once

#include <vector>

namespace dramdig {

[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double variance(const std::vector<double>& xs);

/// Median; copies and partially sorts. Empty input is a precondition
/// violation.
[[nodiscard]] double median(std::vector<double> xs);

/// p-th percentile (0..100) by nearest-rank on a copy.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Min / max over a nonempty vector.
[[nodiscard]] double min_of(const std::vector<double>& xs);
[[nodiscard]] double max_of(const std::vector<double>& xs);

}  // namespace dramdig
