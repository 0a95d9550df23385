// CountMin sketch with a tracked candidate set for heavy hitters
// (Cormode & Muthukrishnan, 2005).
//
// depth rows of width counters; each arrival increments one counter per
// row and the point estimate is the row minimum, overestimating the true
// frequency by at most epsilon * N with probability 1 - e^-depth. The
// candidate set is the classic CountMin+heap construction: up to
// `candidates` values currently believed most frequent, updated at add
// time, so heavy-hitter queries never scan the value domain. Counters
// merge by element-wise addition and, within one window, un-merge by
// subtraction (the windowed bucket ring in sketch/measure.h relies on
// both).
#ifndef STARDUST_SKETCH_COUNTMIN_H_
#define STARDUST_SKETCH_COUNTMIN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "sketch/hll.h"

namespace stardust {

class CountMin {
 public:
  /// Width is the smallest power of two >= e / epsilon (rounding up only
  /// tightens the epsilon * N error bound). `depth` rows, up to
  /// `candidates` tracked heavy-hitter candidates.
  CountMin(double epsilon, std::size_t depth, std::size_t candidates);

  void Add(double value);
  /// Adds `n` values. State-identical to n Add calls (the candidate set
  /// evolves deterministically in arrival order); row bases are hoisted
  /// out of the loop.
  void AddSpan(const double* values, std::size_t n);

  /// Point estimate (row minimum) of how often `value` was added. Never
  /// underestimates; overestimates by at most epsilon * total() with
  /// probability 1 - e^-depth.
  std::uint64_t EstimateCount(double value) const {
    return EstimateBits(SketchValueBits(value));
  }
  /// EstimateCount of the value with SketchValueBits `bits`.
  std::uint64_t EstimateBits(std::uint64_t bits) const;
  /// Values ever added.
  std::uint64_t total() const { return total_; }
  /// Largest counter: an upper bound on every point estimate.
  std::uint32_t max_count() const { return max_count_; }
  /// Tracked candidates whose current estimate is >= phi * total().
  std::size_t HeavyHitterCount(double phi) const;

  /// Counter-only union: adds `other`'s counters and total, leaving the
  /// candidate set alone. Fails, changing nothing, unless `other` shares
  /// this sketch's shape. The sums must fit in uint32 (the windowed
  /// measure caps its window at 2^31 values for this).
  Status AddCounters(const CountMin& other);
  /// One pass of AddCounters(entering) and its inverse for `leaving`,
  /// which must already be part of the sum: slides a counter sum over a
  /// bucket ring. Fails, changing nothing, on a shape mismatch.
  Status SlideCounters(const CountMin& entering, const CountMin& leaving);
  /// Point estimate of the value with SketchValueBits `bits` against the
  /// element-wise sum of this sketch's counters and `other`'s, without
  /// materializing the sum. `other` must share this sketch's shape.
  std::uint64_t EstimateBitsPlus(const CountMin& other,
                                 std::uint64_t bits) const;
  void Clear();

  struct Candidate {
    std::uint64_t bits = 0;   // SketchValueBits of the tracked value
    std::uint64_t count = 0;  // estimate when last touched
  };
  /// Tracked heavy-hitter candidates, in no particular order.
  const std::vector<Candidate>& candidates() const { return candidates_; }

  std::size_t width() const { return width_; }
  std::size_t depth() const { return depth_; }
  std::size_t MemoryBytes() const;

  void SaveTo(Writer* writer) const;
  /// Restores into a sketch constructed with the same shape.
  Status RestoreFrom(Reader* reader);

 private:
  bool SameShape(const CountMin& other) const {
    return other.width_ == width_ && other.depth_ == depth_;
  }
  /// Per-row counter index of a value's hash.
  std::size_t Index(std::size_t row, std::uint64_t bits) const {
    return static_cast<std::size_t>(
               SketchHash64(bits ^ row_seeds_[row])) &
           (width_ - 1);
  }
  void OfferCandidate(std::uint64_t bits, std::uint64_t estimate);
  void RecomputeCandidateFloor();

  double epsilon_;
  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;
  std::uint32_t max_count_ = 0;
  /// depth_ rows of width_ counters, row-major.
  std::vector<std::uint32_t> counters_;
  std::vector<std::uint64_t> row_seeds_;
  std::vector<Candidate> candidates_;
  std::unordered_map<std::uint64_t, std::size_t> candidate_index_;
  /// Smallest stored candidate count once the set is full; offers at or
  /// below it are rejected without scanning (the hot path for the long
  /// tail of infrequent values).
  std::uint64_t candidate_floor_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_SKETCH_COUNTMIN_H_
