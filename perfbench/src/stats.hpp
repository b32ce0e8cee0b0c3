// Exact order statistics over raw samples.
//
// Every latency the benchmark reports comes from here, never from
// `server::LatencyHistogram`, whose bucket edges are 12-25% apart.  A
// percentile is the nearest-rank sample: the smallest sample with at least
// that share of the samples at or below it.  It is reportable only when at
// least `kMinBeyond` samples lie above it, so a tail figure always rests on
// a tail of real samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile `p` (0 < p <= 1) among `n` samples.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double p);

/// Samples strictly above the nearest-rank position of `p`.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The nearest-rank quantile of ascending `sorted`, or nullopt when fewer
/// than `min_beyond` samples lie beyond it (or there are none at all).
[[nodiscard]] std::optional<double> quantile(const std::vector<double>& sorted,
                                             double p,
                                             std::size_t min_beyond =
                                                 kMinBeyond);

/// Median of unsorted values (mean of the middle two for an even count);
/// nullopt when empty.
[[nodiscard]] std::optional<double> median(std::vector<double> values);

/// Quantile `p` of a time series, robust to bursts: `samples` (in time
/// order) are cut into up to `slices` consecutive chunks of equal count,
/// as many as leave every chunk `kMinBeyond` samples beyond `p`; the
/// result is the nearest-rank quantile `across` of the chunks' quantiles.
/// Nullopt when not even one chunk has enough samples.
[[nodiscard]] std::optional<double> sliced_quantile(
    const std::vector<double>& samples, double p, std::size_t slices,
    double across);

}  // namespace perfbench
