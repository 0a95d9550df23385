// Ground-truth oracle of the end-to-end benchmark.
//
// Plain reference computations written from the definitions in
// docs/QUERIES.md, with no code from src/: exact trailing-window sums
// and their upward crossings, unit-sphere-normalized pattern distance,
// z-normalized window distance, and exact distinct / frequency / min-max
// statistics over a sketch's covered window. Each function works on one
// stream's values (or one pair of windows) and is O(input).
#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace e2e::oracle {

/// sums[t] = x[t-w+1] + ... + x[t] for t >= w-1; entries before w-1 are
/// 0 and meaningless. Summed left to right (exact on the input grid).
std::vector<double> TrailingSums(const std::vector<double>& x, std::size_t w);

/// One alarm episode of an aggregate query: the maximal run of positions
/// [start, end) whose trailing sum is >= threshold. `end` is x.size()
/// when the stream ends inside the episode.
struct Episode {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Every alarm episode of the window-`w` sum against `threshold`, over
/// the positions where a full window exists.
std::vector<Episode> CrossingEpisodes(const std::vector<double>& x,
                                      std::size_t w, double threshold);

/// Distance between a window and a pattern of the same length after
/// unit-sphere normalization (each scaled by 1 / (sqrt(n) * r_max)).
double PatternDistance(const double* window, const std::vector<double>& pattern,
                       double r_max);

/// Euclidean distance between the z-normalized forms of two windows
/// (each centred and scaled to unit norm; a constant window normalizes
/// to all zeros).
double ZNormDistance(const double* a, const double* b, std::size_t n);

/// Values covered by a bucket-ring sketch of `window` values in
/// `buckets` buckets after `appended` values (appended >= window):
/// window + (appended mod bucket width).
std::uint64_t SketchCoverage(std::uint64_t window, std::uint64_t buckets,
                             std::uint64_t appended);

/// Number of distinct values among v[0..n).
std::size_t DistinctCount(const double* v, std::size_t n);

/// Number of distinct values whose frequency in v[0..n) is >= cutoff.
std::size_t CountAtLeast(const double* v, std::size_t n, double cutoff);

/// Smallest and largest of v[0..n), n > 0.
std::pair<double, double> MinMax(const double* v, std::size_t n);

}  // namespace e2e::oracle

#endif  // E2EBENCH_ORACLE_H_
