#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace e2e::oracle {

std::vector<double> TrailingSums(const std::vector<double>& x, std::size_t w) {
  std::vector<double> sums(x.size(), 0.0);
  if (w == 0 || x.size() < w) return sums;
  double s = 0.0;
  for (std::size_t i = 0; i < w; ++i) s += x[i];
  sums[w - 1] = s;
  for (std::size_t t = w; t < x.size(); ++t) {
    s += x[t] - x[t - w];
    sums[t] = s;
  }
  return sums;
}

std::vector<Episode> CrossingEpisodes(const std::vector<double>& x,
                                      std::size_t w, double threshold) {
  std::vector<Episode> episodes;
  const std::vector<double> sums = TrailingSums(x, w);
  bool in = false;
  for (std::size_t t = w == 0 ? 0 : w - 1; t < x.size(); ++t) {
    const bool alarm = sums[t] >= threshold;
    if (alarm && !in) episodes.push_back({t, x.size()});
    if (!alarm && in) episodes.back().end = t;
    in = alarm;
  }
  return episodes;
}

double PatternDistance(const double* window, const std::vector<double>& pattern,
                       double r_max) {
  const double scale =
      1.0 / (std::sqrt(static_cast<double>(pattern.size())) * r_max);
  double d2 = 0.0;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const double d = (window[i] - pattern[i]) * scale;
    d2 += d * d;
  }
  return std::sqrt(d2);
}

namespace {

void ZNormalize(const double* v, std::size_t n, std::vector<double>* out) {
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += v[i];
  mean /= static_cast<double>(n);
  double norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) norm2 += (v[i] - mean) * (v[i] - mean);
  out->assign(n, 0.0);
  if (norm2 <= 0.0) return;
  const double inv = 1.0 / std::sqrt(norm2);
  for (std::size_t i = 0; i < n; ++i) (*out)[i] = (v[i] - mean) * inv;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return v == 0.0 ? 0 : bits;  // -0.0 counts as +0.0
}

}  // namespace

double ZNormDistance(const double* a, const double* b, std::size_t n) {
  std::vector<double> za, zb;
  ZNormalize(a, n, &za);
  ZNormalize(b, n, &zb);
  double d2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) d2 += (za[i] - zb[i]) * (za[i] - zb[i]);
  return std::sqrt(d2);
}

std::uint64_t SketchCoverage(std::uint64_t window, std::uint64_t buckets,
                             std::uint64_t appended) {
  std::uint64_t width = (window + buckets - 1) / buckets;
  if (width == 0) width = 1;
  return std::min(appended, window + appended % width);
}

std::size_t DistinctCount(const double* v, std::size_t n) {
  std::vector<std::uint64_t> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = Bits(v[i]);
  std::sort(bits.begin(), bits.end());
  return static_cast<std::size_t>(
      std::unique(bits.begin(), bits.end()) - bits.begin());
}

std::size_t CountAtLeast(const double* v, std::size_t n, double cutoff) {
  std::unordered_map<std::uint64_t, std::size_t> freq;
  for (std::size_t i = 0; i < n; ++i) ++freq[Bits(v[i])];
  std::size_t count = 0;
  for (const auto& [bits, f] : freq) {
    if (static_cast<double>(f) >= cutoff) ++count;
  }
  return count;
}

std::pair<double, double> MinMax(const double* v, std::size_t n) {
  const auto [lo, hi] = std::minmax_element(v, v + n);
  return {*lo, *hi};
}

}  // namespace e2e::oracle
