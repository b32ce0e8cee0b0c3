#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The small slack keeps p * n that is an integer in exact arithmetic
  // (0.99 * 100) from rounding up to the next rank.
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

std::optional<double> quantile(const std::vector<double>& sorted, double p,
                               std::size_t min_beyond) {
  if (sorted.empty() || samples_beyond(sorted.size(), p) < min_beyond) {
    return std::nullopt;
  }
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::optional<double> median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

std::optional<double> sliced_quantile(const std::vector<double>& samples,
                                      double p, std::size_t slices,
                                      double across) {
  // Smallest chunk with kMinBeyond samples beyond p.
  std::size_t need = kMinBeyond + 1;
  while (samples_beyond(need, p) < kMinBeyond) ++need;
  const std::size_t chunks = std::min(slices, samples.size() / need);
  if (chunks == 0) return std::nullopt;
  std::vector<double> values;
  for (std::size_t i = 0; i < chunks; ++i) {
    const auto from = static_cast<std::ptrdiff_t>(i * samples.size() / chunks);
    const auto to =
        static_cast<std::ptrdiff_t>((i + 1) * samples.size() / chunks);
    std::vector<double> chunk(samples.begin() + from, samples.begin() + to);
    std::sort(chunk.begin(), chunk.end());
    values.push_back(*quantile(chunk, p));
  }
  std::sort(values.begin(), values.end());
  return quantile(values, across, 0);
}

}  // namespace perfbench
