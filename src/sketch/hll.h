// HyperLogLog approximate distinct counting (Flajolet et al., 2007).
//
// m = 2^precision one-byte registers, each holding the maximum leading-
// zero rank seen in its substream. Standard error is ~1.04/sqrt(m)
// (~0.8% at precision 14); the small-cardinality regime uses linear
// counting over the empty registers, which keeps low distinct counts
// near-exact. Registers merge by element-wise max, which is what the
// windowed bucket ring in sketch/measure.h relies on. The estimator reads
// only the histogram of register values, so a caller that keeps that
// histogram up to date (the windowed union in sketch/measure.cc) estimates
// in O(ranks) rather than O(registers), bit-identically.
#ifndef STARDUST_SKETCH_HLL_H_
#define STARDUST_SKETCH_HLL_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace stardust {

/// Mixes 64 bits into 64 well-distributed bits (splitmix64 finalizer).
/// Shared by the sketches so a value hashes identically everywhere.
inline std::uint64_t SketchHash64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Canonical hash input of a double-valued stream element: the IEEE bit
/// pattern with -0.0 folded onto +0.0 so numerically equal values count
/// as one distinct element.
inline std::uint64_t SketchValueBits(double value) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits == 0x8000000000000000ULL ? 0 : bits;
}

class HyperLogLog {
 public:
  /// Register values lie in [0, 65 - precision], at most 61: one
  /// histogram slot per possible value.
  static constexpr std::size_t kRankSlots = 62;
  /// hist[r] = number of registers holding r.
  using RankHistogram = std::array<std::uint32_t, kRankSlots>;

  /// `precision` in [4, 18]; the sketch uses 2^precision byte registers.
  explicit HyperLogLog(std::size_t precision);

  void Add(double value) { AddHash(SketchHash64(SketchValueBits(value))); }
  void AddHash(std::uint64_t hash) {
    AddHash(hash, [](std::size_t, std::uint8_t) {});
  }
  /// Adds `n` values; equivalent to n Add calls (register max is
  /// order-independent), with the hash chain unrolled for ILP.
  void AddSpan(const double* values, std::size_t n) {
    AddSpan(values, n, [](std::size_t, std::uint8_t) {});
  }
  /// As AddSpan, and calls on_raise(index, rank) each time register
  /// `index` rises to `rank`.
  template <typename OnRaise>
  void AddSpan(const double* values, std::size_t n, OnRaise&& on_raise);

  /// Approximate number of distinct values added.
  double Estimate() const;
  /// The HLL estimate of `m` registers whose values have histogram
  /// `hist`. Estimate() goes through this, so two register arrays with
  /// equal histograms estimate bit-identically.
  static double EstimateFromHistogram(const RankHistogram& hist,
                                      std::size_t m);
  /// Histogram of the `m` register values at `registers`.
  static void FillHistogram(const std::uint8_t* registers, std::size_t m,
                            RankHistogram* hist);

  void Clear();

  std::size_t precision() const { return precision_; }
  std::size_t num_registers() const { return registers_.size(); }
  const std::uint8_t* registers() const { return registers_.data(); }
  std::size_t MemoryBytes() const { return registers_.size(); }

  void SaveTo(Writer* writer) const;
  /// Restores into a sketch constructed with the same precision.
  Status RestoreFrom(Reader* reader);

 private:
  template <typename OnRaise>
  void AddHash(std::uint64_t hash, OnRaise&& on_raise) {
    const std::size_t index =
        static_cast<std::size_t>(hash >> (64 - precision_));
    // Rank of the first set bit in the remaining 64 - precision bits,
    // 1-based; an all-zero suffix ranks one past the suffix width.
    const std::uint64_t suffix = hash << precision_;
    const std::uint8_t rank = static_cast<std::uint8_t>(
        suffix == 0 ? 65 - precision_ : std::countl_zero(suffix) + 1);
    if (rank > registers_[index]) {
      registers_[index] = rank;
      on_raise(index, rank);
    }
  }

  std::size_t precision_;
  std::vector<std::uint8_t> registers_;
};

template <typename OnRaise>
void HyperLogLog::AddSpan(const double* values, std::size_t n,
                          OnRaise&& on_raise) {
  // Four independent hash chains per iteration: the splitmix mixing of
  // consecutive values has no cross dependencies, so the unroll keeps the
  // multiply pipeline full instead of serializing on one chain.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t h0 = SketchHash64(SketchValueBits(values[i]));
    const std::uint64_t h1 = SketchHash64(SketchValueBits(values[i + 1]));
    const std::uint64_t h2 = SketchHash64(SketchValueBits(values[i + 2]));
    const std::uint64_t h3 = SketchHash64(SketchValueBits(values[i + 3]));
    AddHash(h0, on_raise);
    AddHash(h1, on_raise);
    AddHash(h2, on_raise);
    AddHash(h3, on_raise);
  }
  for (; i < n; ++i) {
    AddHash(SketchHash64(SketchValueBits(values[i])), on_raise);
  }
}

}  // namespace stardust

#endif  // STARDUST_SKETCH_HLL_H_
