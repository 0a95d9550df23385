// Seeded input generator of the end-to-end benchmark.
//
// Every stream is a pure function of (workload signal, seed, stream id):
// StreamGen yields its values one at a time, so the producer that owns
// the stream and the oracle that checks it later see the same sequence
// without storing it. Values lie on a 1/1024 grid, so window sums of up
// to 2^40 values are exact in double arithmetic in any summation order.
//
// A stream alternates baseline segments with events. An event is a
// level burst (+burst_height for burst_min..burst_max values) or, on
// pattern-carrying workloads, one injected copy of the V-shaped pattern
// (VPattern). Baselines are longer than every aggregate window, so each
// burst raises every windowed sum through its threshold exactly once and
// the sum falls back before the next event starts (see README.md).
#ifndef E2EBENCH_GEN_H_
#define E2EBENCH_GEN_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// splitmix64 finalizer: a well-mixed 64-bit hash.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small counter-based generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(Mix64(seed)) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  /// Uniform integer in [lo, hi].
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Rounds to the 1/1024 grid every generated value lies on.
inline double Quantize(double x) { return std::round(x * 1024.0) / 1024.0; }

/// Length of the injected and queried pattern.
inline constexpr std::size_t kPatternLength = 32;

/// The V-shaped dip injected into streams and registered as the pattern
/// query: 10 at both ends, about 2.3 at the centre.
inline std::vector<double> VPattern() {
  std::vector<double> v(kPatternLength);
  const double mid = (kPatternLength - 1) / 2.0;
  for (std::size_t k = 0; k < kPatternLength; ++k) {
    const double depth = 1.0 - std::fabs(static_cast<double>(k) - mid) / mid;
    v[k] = Quantize(10.0 - 8.0 * depth);
  }
  return v;
}

/// Shape of a workload's streams.
struct SignalSpec {
  double base = 10.0;
  /// Half-width of the uniform per-value noise.
  double noise = 2.0;
  double burst_height = 10.0;
  /// Amplitude of the sinusoid shared by every stream of a group.
  double factor_amp = 0.0;
  /// Streams per correlated group (stream / group_size); 0 = no groups.
  std::size_t group_size = 0;
  std::size_t first_gap = 320;
  std::size_t gap_min = 400, gap_max = 1200;
  std::size_t burst_min = 320, burst_max = 640;
  /// Share of events that are pattern injections instead of bursts.
  double pattern_share = 0.0;
  /// Stream s is categorical (small alphabet, alternating calm and wild
  /// baselines) when s % categorical_every == categorical_every - 1; 0 =
  /// none.
  std::size_t categorical_every = 0;
};

/// Aggregate (sum) threshold for window `w`: 15 per value, between the
/// largest baseline or pattern value of every workload (base +
/// factor_amp + noise <= 13.5, categorical <= 13.75) and the smallest
/// burst value (base + burst_height - factor_amp - noise >= 16.5), and
/// offset by 1/4096 so no sum on the 1/1024 grid ever equals it.
inline double ThresholdFor(std::size_t w) {
  return 15.0 * static_cast<double>(w) + 1.0 / 4096.0;
}

/// Sequential generator of one stream's values.
class StreamGen {
 public:
  StreamGen(const SignalSpec& spec, std::uint64_t seed, std::uint32_t stream)
      : spec_(spec),
        rng_(seed * 0x100000001b3ULL ^ (0xabcdef0000000000ULL + stream)),
        categorical_(spec.categorical_every != 0 &&
                     stream % spec.categorical_every ==
                         spec.categorical_every - 1),
        pattern_(VPattern()) {
    if (spec.group_size != 0) {
      Rng group(seed ^ (0x5151000000000000ULL + stream / spec.group_size));
      period_ = 48.0 + 112.0 * group.Uniform();
      phase_ = 6.283185307179586 * group.Uniform();
    }
    kind_ = Kind::kBaseline;
    left_ = spec.first_gap;
  }

  double Next() {
    while (left_ == 0) NextSegment();
    double value;
    if (kind_ == Kind::kPattern) {
      value = pattern_[offset_] + (rng_.Uniform() - 0.5) * 0.5;
    } else {
      value = categorical_ ? Categorical() : Numeric();
      if (kind_ == Kind::kBurst) value += spec_.burst_height;
    }
    ++offset_;
    --left_;
    ++pos_;
    return Quantize(value);
  }

 private:
  enum class Kind { kBaseline, kBurst, kPattern };

  void NextSegment() {
    offset_ = 0;
    if (kind_ != Kind::kBaseline) {
      kind_ = Kind::kBaseline;
      ++baselines_;
      left_ = rng_.Range(spec_.gap_min, spec_.gap_max);
      return;
    }
    if (!categorical_ && rng_.Uniform() < spec_.pattern_share) {
      kind_ = Kind::kPattern;
      left_ = kPatternLength;
    } else {
      kind_ = Kind::kBurst;
      left_ = rng_.Range(spec_.burst_min, spec_.burst_max);
    }
  }

  double Numeric() {
    double v = spec_.base + (rng_.Uniform() * 2.0 - 1.0) * spec_.noise;
    if (period_ > 0.0) {
      v += spec_.factor_amp *
           std::sin(6.283185307179586 * static_cast<double>(pos_) / period_ +
                    phase_);
    }
    return v;
  }

  /// Calm baselines: 10 with probability 0.6, else 11/12/13. Wild
  /// baselines: 16 equally likely values 10, 10.25, ..., 13.75.
  double Categorical() {
    const double u = rng_.Uniform();
    if (baselines_ % 2 == 0) {
      if (u < 0.6) return 10.0;
      return 11.0 + static_cast<double>(static_cast<int>((u - 0.6) / 0.4 * 3.0));
    }
    return 10.0 + 0.25 * static_cast<double>(static_cast<int>(u * 16.0));
  }

  SignalSpec spec_;
  Rng rng_;
  bool categorical_;
  std::vector<double> pattern_;
  double period_ = 0.0;
  double phase_ = 0.0;
  Kind kind_;
  std::uint64_t left_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t baselines_ = 0;
  std::uint64_t pos_ = 0;
};

/// The first `n` values of one stream.
inline std::vector<double> StreamValues(const SignalSpec& spec,
                                        std::uint64_t seed,
                                        std::uint32_t stream, std::size_t n) {
  StreamGen gen(spec, seed, stream);
  std::vector<double> out(n);
  for (double& v : out) v = gen.Next();
  return out;
}

}  // namespace e2e

#endif  // E2EBENCH_GEN_H_
