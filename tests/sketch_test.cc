// Accuracy bounds, windowed semantics, batched-append equivalence, and
// serialization round-trips of the sketch measures (src/sketch).
#include "sketch/measure.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/quantile.h"

namespace stardust {
namespace {

// --- HyperLogLog --------------------------------------------------------

TEST(HyperLogLogTest, AccuracyWithinTwoPercentAt16kRegisters) {
  // Standard error of HLL is ~1.04/sqrt(m); precision 14 = 16384
  // registers gives ~0.8%, so 2% is a comfortable deterministic bound
  // for these fixed seeds.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    HyperLogLog hll(14);
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      hll.Add(std::floor(rng.NextDouble(0.0, 100000.0)) + 0.5);
    }
    // ~100000 distinct values were drawn; compute the exact count.
    std::vector<double> values;
    Rng replay(seed);
    for (int i = 0; i < n; ++i) {
      values.push_back(std::floor(replay.NextDouble(0.0, 100000.0)) + 0.5);
    }
    std::sort(values.begin(), values.end());
    const double exact = static_cast<double>(
        std::unique(values.begin(), values.end()) - values.begin());
    EXPECT_NEAR(hll.Estimate(), exact, 0.02 * exact) << "seed " << seed;
  }
}

TEST(HyperLogLogTest, SmallCardinalitiesAreNearExact) {
  HyperLogLog hll(12);
  for (int i = 0; i < 50; ++i) hll.Add(static_cast<double>(i));
  EXPECT_NEAR(hll.Estimate(), 50.0, 1.5);
  // Repeats change nothing.
  for (int i = 0; i < 50; ++i) hll.Add(static_cast<double>(i));
  EXPECT_NEAR(hll.Estimate(), 50.0, 1.5);
}

TEST(HyperLogLogTest, SpanMatchesScalarAppends) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 4097; ++i) {
    values.push_back(std::floor(rng.NextDouble(0.0, 500.0)));
  }
  HyperLogLog scalar(10), batched(10);
  for (double v : values) scalar.Add(v);
  batched.AddSpan(values.data(), values.size());
  EXPECT_DOUBLE_EQ(scalar.Estimate(), batched.Estimate());
}

TEST(HyperLogLogTest, RegisterMaxEqualsUnion) {
  // The windowed distinct measure unions buckets by register max and
  // estimates from the union's histogram.
  HyperLogLog a(12), b(12), both(12);
  for (int i = 0; i < 4000; ++i) {
    a.Add(static_cast<double>(i));
    both.Add(static_cast<double>(i));
  }
  for (int i = 2000; i < 6000; ++i) {
    b.Add(static_cast<double>(i));
    both.Add(static_cast<double>(i));
  }
  std::vector<std::uint8_t> max(a.num_registers());
  for (std::size_t i = 0; i < max.size(); ++i) {
    max[i] = std::max(a.registers()[i], b.registers()[i]);
  }
  HyperLogLog::RankHistogram max_hist, both_hist;
  HyperLogLog::FillHistogram(max.data(), max.size(), &max_hist);
  HyperLogLog::FillHistogram(both.registers(), both.num_registers(),
                             &both_hist);
  EXPECT_EQ(max_hist, both_hist);
  EXPECT_EQ(HyperLogLog::EstimateFromHistogram(max_hist, max.size()),
            both.Estimate());
}

TEST(HyperLogLogTest, SerializationRoundTrip) {
  HyperLogLog hll(11);
  for (int i = 0; i < 10000; ++i) hll.Add(static_cast<double>(i % 3000));
  Writer writer;
  hll.SaveTo(&writer);
  Reader reader(writer.buffer());
  HyperLogLog restored(11);
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_DOUBLE_EQ(restored.Estimate(), hll.Estimate());
  // A snapshot for a different precision is rejected, not misread.
  Reader again(writer.buffer());
  HyperLogLog mismatched(12);
  EXPECT_FALSE(mismatched.RestoreFrom(&again).ok());
}

TEST(HyperLogLogTest, ZeroFoldsToPositiveZero) {
  HyperLogLog a(10), b(10);
  a.Add(0.0);
  b.Add(-0.0);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

// --- CountMin -----------------------------------------------------------

TEST(CountMinTest, OvercountBoundedByEpsilonN) {
  // Classic guarantee: estimate(v) >= true(v), and with probability
  // 1 - delta the over-count stays below epsilon * N. With depth 4 and
  // fixed seeds this holds deterministically here.
  const double epsilon = 0.01;
  CountMin cm(epsilon, 4, 16);
  Rng rng(11);
  std::vector<std::uint64_t> truth(1000, 0);
  std::uint64_t n = 0;
  for (int i = 0; i < 200000; ++i) {
    // Zipf-ish skew: low ids are hot.
    const auto id = static_cast<std::size_t>(
        1000.0 * rng.NextDouble(0.0, 1.0) * rng.NextDouble(0.0, 1.0));
    const auto key = std::min<std::size_t>(id, 999);
    ++truth[key];
    ++n;
    cm.Add(static_cast<double>(key));
  }
  for (std::size_t key = 0; key < truth.size(); ++key) {
    const std::uint64_t est = cm.EstimateCount(static_cast<double>(key));
    EXPECT_GE(est, truth[key]) << "key " << key;
    EXPECT_LE(est, truth[key] + static_cast<std::uint64_t>(
                                    epsilon * static_cast<double>(n)))
        << "key " << key;
  }
}

TEST(CountMinTest, HeavyHitterCountFindsTheHotValues) {
  CountMin cm(0.005, 4, 32);
  // Two values own 30% each; the rest is a long uniform tail.
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) {
    const double roll = rng.NextDouble(0.0, 1.0);
    double v;
    if (roll < 0.3) {
      v = -1.0;
    } else if (roll < 0.6) {
      v = -2.0;
    } else {
      v = std::floor(rng.NextDouble(0.0, 5000.0));
    }
    cm.Add(v);
  }
  EXPECT_EQ(cm.HeavyHitterCount(0.25), 2u);
  EXPECT_EQ(cm.HeavyHitterCount(0.5), 0u);
}

TEST(CountMinTest, SpanMatchesScalarAppends) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(std::floor(rng.NextDouble(0.0, 40.0)));
  }
  CountMin scalar(0.02, 3, 8), batched(0.02, 3, 8);
  for (double v : values) scalar.Add(v);
  batched.AddSpan(values.data(), values.size());
  EXPECT_EQ(scalar.total(), batched.total());
  for (int key = 0; key < 40; ++key) {
    EXPECT_EQ(scalar.EstimateCount(key), batched.EstimateCount(key));
  }
  EXPECT_EQ(scalar.HeavyHitterCount(0.01), batched.HeavyHitterCount(0.01));
}

// Random keys over a domain several times the sketch width, so counters
// are shared by colliding keys.
std::vector<double> CollidingKeys(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> keys(n);
  for (double& k : keys) k = std::floor(rng.NextDouble(0.0, 300.0));
  return keys;
}

TEST(CountMinTest, AddCountersAddsCounts) {
  const std::vector<double> xs = CollidingKeys(11, 3000);
  const std::vector<double> ys = CollidingKeys(12, 2000);
  CountMin a(0.05, 4, 16), b(0.05, 4, 16), both(0.05, 4, 16);
  a.AddSpan(xs.data(), xs.size());
  b.AddSpan(ys.data(), ys.size());
  both.AddSpan(xs.data(), xs.size());
  both.AddSpan(ys.data(), ys.size());
  // EstimateBitsPlus reads the same sum without materializing it.
  for (int key = 0; key < 300; ++key) {
    EXPECT_EQ(a.EstimateBitsPlus(b, SketchValueBits(key)),
              both.EstimateCount(key))
        << "key " << key;
  }
  const std::vector<CountMin::Candidate> tracked = a.candidates();
  ASSERT_TRUE(a.AddCounters(b).ok());
  EXPECT_EQ(a.total(), both.total());
  EXPECT_EQ(a.max_count(), both.max_count());
  for (int key = 0; key < 300; ++key) {
    EXPECT_EQ(a.EstimateCount(key), both.EstimateCount(key)) << "key " << key;
  }
  // Counters only: the candidate set is left as it was.
  ASSERT_EQ(a.candidates().size(), tracked.size());
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    EXPECT_EQ(a.candidates()[i].bits, tracked[i].bits);
    EXPECT_EQ(a.candidates()[i].count, tracked[i].count);
  }
  CountMin other(0.1, 2, 16);
  EXPECT_FALSE(other.AddCounters(b).ok());
  EXPECT_EQ(other.total(), 0u);
}

TEST(CountMinTest, SlideCountersSlidesSum) {
  const std::vector<double> xs = CollidingKeys(21, 3000);
  const std::vector<double> ys = CollidingKeys(22, 2000);
  const std::vector<double> zs = CollidingKeys(23, 2500);
  CountMin sum(0.05, 4, 16), leaving(0.05, 4, 16), entering(0.05, 4, 16),
      expected(0.05, 4, 16);
  sum.AddSpan(xs.data(), xs.size());
  sum.AddSpan(ys.data(), ys.size());
  leaving.AddSpan(ys.data(), ys.size());
  entering.AddSpan(zs.data(), zs.size());
  expected.AddSpan(xs.data(), xs.size());
  expected.AddSpan(zs.data(), zs.size());
  ASSERT_TRUE(sum.SlideCounters(entering, leaving).ok());
  EXPECT_EQ(sum.total(), expected.total());
  EXPECT_EQ(sum.max_count(), expected.max_count());
  for (int key = 0; key < 300; ++key) {
    EXPECT_EQ(sum.EstimateCount(key), expected.EstimateCount(key))
        << "key " << key;
  }
  // A shape mismatch on either side is rejected and changes nothing.
  CountMin narrow(0.1, 2, 16), shallow(0.05, 3, 16);
  EXPECT_FALSE(sum.SlideCounters(narrow, leaving).ok());
  EXPECT_FALSE(sum.SlideCounters(entering, shallow).ok());
  EXPECT_EQ(sum.total(), expected.total());
  for (int key = 0; key < 300; ++key) {
    EXPECT_EQ(sum.EstimateCount(key), expected.EstimateCount(key))
        << "key " << key;
  }
}

TEST(CountMinTest, SerializationRoundTrip) {
  CountMin cm(0.02, 4, 8);
  for (int i = 0; i < 10000; ++i) {
    cm.Add(std::floor(static_cast<double>(i % 11)));
  }
  Writer writer;
  cm.SaveTo(&writer);
  Reader reader(writer.buffer());
  CountMin restored(0.02, 4, 8);
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.total(), cm.total());
  for (int key = 0; key < 11; ++key) {
    EXPECT_EQ(restored.EstimateCount(key), cm.EstimateCount(key));
  }
  // A truncated payload is rejected, not misread.
  std::string trunc(writer.buffer().substr(0, writer.buffer().size() / 2));
  Reader bad(trunc);
  CountMin victim(0.02, 4, 8);
  EXPECT_FALSE(victim.RestoreFrom(&bad).ok());
}

// --- Windowed measures --------------------------------------------------

SketchConfig DistinctConfig(std::uint64_t window) {
  SketchConfig config;
  config.kind = SketchKind::kDistinct;
  config.window = window;
  config.hll_precision = 12;
  return config;
}

TEST(SketchMeasureTest, DistinctWindowForgetsOldValues) {
  SketchConfig config = DistinctConfig(64);
  auto measure = CreateSketchMeasure(config);
  // First 64 appends: 32 distinct values; not ready before the window
  // fills.
  for (int i = 0; i < 63; ++i) {
    measure->Append(static_cast<double>(i % 32));
    EXPECT_FALSE(measure->Ready());
  }
  measure->Append(31.0);
  ASSERT_TRUE(measure->Ready());
  EXPECT_NEAR(measure->Estimate(), 32.0, 1.0);
  // Flood with a single value: once the old buckets rotate out (window
  // + one bucket width), the distinct count falls to 1.
  for (int i = 0; i < 64 + 16; ++i) measure->Append(7.0);
  EXPECT_NEAR(measure->Estimate(), 1.0, 0.1);
}

TEST(SketchMeasureTest, HeavyHitterWindowTracksDominance) {
  SketchConfig config;
  config.kind = SketchKind::kHeavyHitters;
  config.window = 64;
  config.phi = 0.4;
  auto measure = CreateSketchMeasure(config);
  for (int i = 0; i < 64; ++i) measure->Append(1.0);
  ASSERT_TRUE(measure->Ready());
  EXPECT_DOUBLE_EQ(measure->Estimate(), 1.0);  // one dominant value
  // Cycle 10 distinct values: nobody holds 40% once the constant run
  // ages out.
  for (int i = 0; i < 64 + 16; ++i) {
    measure->Append(static_cast<double>(10 + i % 10));
  }
  EXPECT_DOUBLE_EQ(measure->Estimate(), 0.0);
}

TEST(SketchMeasureTest, QuantileWindowTracksRecentDistribution) {
  SketchConfig config;
  config.kind = SketchKind::kQuantile;
  config.window = 64;
  config.q = 0.5;
  auto measure = CreateSketchMeasure(config);
  Rng rng(3);
  for (int i = 0; i < 64; ++i) measure->Append(rng.NextDouble(0.0, 1.0));
  ASSERT_TRUE(measure->Ready());
  EXPECT_NEAR(measure->Estimate(), 0.5, 0.25);
  // Shift the distribution up by 10; the windowed median follows once
  // the staggered estimators cycle through.
  for (int i = 0; i < 5 * 64; ++i) {
    measure->Append(10.0 + rng.NextDouble(0.0, 1.0));
  }
  EXPECT_NEAR(measure->Estimate(), 10.5, 0.3);
}

TEST(SketchMeasureTest, QuantileRankErrorOnUniformStream) {
  SketchConfig config;
  config.kind = SketchKind::kQuantile;
  config.window = 512;
  config.q = 0.9;
  auto measure = CreateSketchMeasure(config);
  Rng rng(41);
  for (int i = 0; i < 4096; ++i) {
    measure->Append(rng.NextDouble(0.0, 1.0));
  }
  // Exact p90 of U(0,1) is 0.9; allow a 5%-of-range rank error for the
  // windowed P^2 estimate.
  EXPECT_NEAR(measure->Estimate(), 0.9, 0.05);
}

TEST(SketchMeasureTest, AppendRunMatchesScalarForEveryKind) {
  for (const SketchKind kind :
       {SketchKind::kDistinct, SketchKind::kHeavyHitters,
        SketchKind::kQuantile}) {
    SketchConfig config;
    config.kind = kind;
    config.window = 48;  // not a multiple of the run lengths below
    config.buckets = 5;
    auto scalar = CreateSketchMeasure(config);
    auto batched = CreateSketchMeasure(config);
    Rng rng(static_cast<std::uint64_t>(kind) + 100);
    std::vector<double> pending;
    for (int i = 0; i < 1000; ++i) {
      pending.push_back(std::floor(rng.NextDouble(0.0, 20.0)));
      if (pending.size() == 7 || i == 999) {
        for (double v : pending) scalar->Append(v);
        batched->AppendRun(pending.data(), pending.size());
        pending.clear();
      }
    }
    EXPECT_EQ(scalar->Ready(), batched->Ready());
    EXPECT_DOUBLE_EQ(scalar->Estimate(), batched->Estimate())
        << "kind " << SketchKindName(kind);
    // State-identical, not just estimate-identical.
    Writer a, b;
    scalar->SaveTo(&a);
    batched->SaveTo(&b);
    EXPECT_EQ(a.buffer(), b.buffer()) << "kind " << SketchKindName(kind);
  }
}

TEST(SketchMeasureTest, SerializationRoundTripForEveryKind) {
  for (const SketchKind kind :
       {SketchKind::kDistinct, SketchKind::kHeavyHitters,
        SketchKind::kQuantile}) {
    SketchConfig config;
    config.kind = kind;
    config.window = 32;
    auto measure = CreateSketchMeasure(config);
    Rng rng(static_cast<std::uint64_t>(kind) + 7);
    for (int i = 0; i < 333; ++i) {
      measure->Append(std::floor(rng.NextDouble(0.0, 12.0)));
    }
    Writer writer;
    measure->SaveTo(&writer);
    auto restored = CreateSketchMeasure(config);
    Reader reader(writer.buffer());
    ASSERT_TRUE(restored->RestoreFrom(&reader).ok())
        << SketchKindName(kind);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored->appends(), measure->appends());
    EXPECT_EQ(restored->Ready(), measure->Ready());
    EXPECT_DOUBLE_EQ(restored->Estimate(), measure->Estimate());
    // Identical continuations after restore.
    for (int i = 0; i < 100; ++i) {
      const double v = std::floor(rng.NextDouble(0.0, 12.0));
      measure->Append(v);
      restored->Append(v);
    }
    EXPECT_DOUBLE_EQ(restored->Estimate(), measure->Estimate());
    // Truncation fails closed.
    std::string trunc(
        writer.buffer().substr(0, writer.buffer().size() - 3));
    Reader bad(trunc);
    auto victim = CreateSketchMeasure(config);
    EXPECT_FALSE(victim->RestoreFrom(&bad).ok());
  }
}

// Brute-force reference for the windowed distinct and heavy-hitter
// measures. The live buckets hold exactly the last Covered() values, so a
// sketch fed just those has the registers and counters of a merged copy
// of the live buckets (register max and counter sums do not depend on how
// values are split); the candidate sets come from a mirror ring of
// per-bucket CountMins.
class WindowReference {
 public:
  explicit WindowReference(const SketchConfig& config)
      : config_(config),
        width_(std::max<std::uint64_t>(
            1, (config.window + config.buckets - 1) / config.buckets)) {
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.epsilon, config.depth, config.candidates);
    }
  }

  void Append(double value) {
    values_.push_back(value);
    ring_[head_].Add(value);
    if (++fill_ == width_) {
      head_ = (head_ + 1) % ring_.size();
      ring_[head_].Clear();
      fill_ = 0;
    }
  }

  std::vector<double> Covered() const {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        values_.size(), config_.buckets * width_ + fill_));
    return {values_.end() - static_cast<std::ptrdiff_t>(n), values_.end()};
  }

  double Distinct() const {
    HyperLogLog merged(config_.hll_precision);
    for (double v : Covered()) merged.Add(v);
    return merged.Estimate();
  }

  double HeavyHitters() const {
    const std::vector<double> covered = Covered();
    CountMin merged(config_.epsilon, config_.depth, config_.candidates);
    for (double v : covered) merged.Add(v);
    std::set<std::uint64_t> candidates;
    for (const CountMin& bucket : ring_) {
      for (const CountMin::Candidate& c : bucket.candidates()) {
        candidates.insert(c.bits);
      }
    }
    const double cutoff =
        config_.phi * static_cast<double>(covered.size());
    std::size_t hitters = 0;
    for (std::uint64_t bits : candidates) {
      const double value = std::bit_cast<double>(bits);
      if (static_cast<double>(merged.EstimateCount(value)) >= cutoff) {
        ++hitters;
      }
    }
    return static_cast<double>(hitters);
  }

  /// Exact number of covered values with frequency >= fraction * covered.
  double ExactHeavy(double fraction) const {
    const std::vector<double> covered = Covered();
    std::map<double, std::size_t> freq;
    for (double v : covered) ++freq[v];
    std::size_t heavy = 0;
    for (const auto& [value, count] : freq) {
      if (static_cast<double>(count) >=
          fraction * static_cast<double>(covered.size())) {
        ++heavy;
      }
    }
    return static_cast<double>(heavy);
  }

 private:
  SketchConfig config_;
  std::uint64_t width_;
  std::vector<CountMin> ring_;
  std::size_t head_ = 0;
  std::uint64_t fill_ = 0;
  std::vector<double> values_;
};

TEST(SketchMeasureTest, LiveWindowStateMatchesMergedBuckets) {
  // Window shapes that are not multiples of their bucket counts, plus a
  // window narrower than its bucket count (one-value buckets).
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {37, 5}, {100, 7}, {64, 3}, {250, 6}, {5, 8}, {29, 1}};
  std::uint64_t seed = 1;
  for (const auto& [window, buckets] : shapes) {
    ++seed;
    SketchConfig config;
    config.window = window;
    config.buckets = buckets;
    config.hll_precision = 4 + seed % 9;
    config.epsilon = 0.02;
    config.phi = 0.15;
    config.candidates = 8;
    config.kind = SketchKind::kDistinct;
    auto distinct = CreateSketchMeasure(config);
    config.kind = SketchKind::kHeavyHitters;
    auto heavy = CreateSketchMeasure(config);
    WindowReference reference(config);
    Rng rng(seed);
    for (int step = 0; step < 600; ++step) {
      // Random run cut, up to a little over two bucket widths. Values:
      // one hot value (30%), three near the phi cutoff (10% each) and a
      // long tail, so heavy counts move and the candidate sets churn;
      // some runs are a burst of one value instead, which turns heavy
      // through the newest bucket alone.
      const auto len = static_cast<std::size_t>(
          1 + rng.NextDouble(0.0, 2.0 * window / buckets + 3.0));
      const bool burst = rng.NextDouble(0.0, 1.0) < 0.15;
      const double burst_value = std::floor(rng.NextDouble(1.0, 12.0));
      std::vector<double> run(len);
      for (double& v : run) {
        const double roll = rng.NextDouble(0.0, 1.0);
        v = burst        ? burst_value
            : roll < 0.3 ? 0.0
            : roll < 0.6 ? std::floor(rng.NextDouble(1.0, 4.0))
                         : std::floor(rng.NextDouble(4.0, 300.0));
        reference.Append(v);
      }
      distinct->AppendRun(run.data(), run.size());
      heavy->AppendRun(run.data(), run.size());
      if (!distinct->Ready()) continue;
      const std::string where = "window " + std::to_string(window) +
                                " buckets " + std::to_string(buckets) +
                                " step " + std::to_string(step);
      EXPECT_EQ(distinct->Estimate(), reference.Distinct()) << where;
      const double hitters = heavy->Estimate();
      EXPECT_EQ(hitters, reference.HeavyHitters()) << where;
      EXPECT_GE(hitters, reference.ExactHeavy(config.phi)) << where;
      EXPECT_LE(hitters, reference.ExactHeavy(config.phi - config.epsilon))
          << where;
      if (step % 37 == 0) {
        // Checkpoint and continue from the restored copies: the live
        // state is derived, not saved, and must come back exactly.
        for (std::unique_ptr<SketchMeasure>* measure : {&distinct, &heavy}) {
          Writer writer;
          (*measure)->SaveTo(&writer);
          config.kind = measure == &distinct ? SketchKind::kDistinct
                                             : SketchKind::kHeavyHitters;
          auto restored = CreateSketchMeasure(config);
          Reader reader(writer.buffer());
          ASSERT_TRUE(restored->RestoreFrom(&reader).ok()) << where;
          EXPECT_EQ(restored->Estimate(), (*measure)->Estimate()) << where;
          *measure = std::move(restored);
        }
      }
    }
  }
}

TEST(SketchMeasureTest, HeavyHitterLiftedByNewestBucketOutsideItsCandidates) {
  // A value just under the cutoff in the older buckets turns heavy with a
  // few arrivals in the newest bucket, whose single candidate slot another
  // value holds: it must still count, as a closed-bucket candidate.
  SketchConfig config;
  config.kind = SketchKind::kHeavyHitters;
  config.window = 100;
  config.buckets = 4;  // 25 values per bucket
  config.phi = 0.3;
  config.candidates = 1;
  auto measure = CreateSketchMeasure(config);
  const double v = 7.0;
  double filler = 1000.0;
  for (int bucket = 0; bucket < 4; ++bucket) {
    const int copies = bucket == 0 ? 8 : 7;  // 29 of v in 100 values
    for (int i = 0; i < 25; ++i) {
      measure->Append(i % 3 == 1 && i / 3 < copies ? v : filler++);
    }
  }
  for (int i = 0; i < 5; ++i) measure->Append(8.0);
  for (int i = 0; i < 4; ++i) measure->Append(v);
  // 33 of v in 109 values: at least 0.3 * 109.
  ASSERT_TRUE(measure->Ready());
  EXPECT_EQ(measure->Estimate(), 1.0);
}

TEST(SketchConfigTest, ValidateRejectsBadKnobs) {
  SketchConfig config = DistinctConfig(16);
  EXPECT_TRUE(config.Validate().ok());
  config.window = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.hll_precision = 3;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.buckets = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.epsilon = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.q = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  // Windows above 2^31 could saturate the windowed uint32 counters.
  config = DistinctConfig(std::uint64_t{1} << 31);
  EXPECT_TRUE(config.Validate().ok());
  config.window += 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SketchConfigTest, SerializationRoundTrip) {
  SketchConfig config;
  config.kind = SketchKind::kHeavyHitters;
  config.window = 128;
  config.buckets = 8;
  config.epsilon = 0.003;
  config.depth = 5;
  config.phi = 0.2;
  config.candidates = 64;
  Writer writer;
  config.SaveTo(&writer);
  SketchConfig restored;
  Reader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored, config);
}

// --- P2 snapshot (promoted from src/transform) --------------------------

TEST(P2QuantileSnapshotTest, RoundTripAndQuantileMismatch) {
  P2Quantile q(0.75);
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) q.Add(rng.NextGaussian());
  Writer writer;
  q.SaveTo(&writer);
  P2Quantile restored(0.75);
  Reader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_DOUBLE_EQ(restored.Value(), q.Value());
  P2Quantile wrong(0.5);
  Reader again(writer.buffer());
  EXPECT_FALSE(wrong.RestoreFrom(&again).ok());
}

}  // namespace
}  // namespace stardust
