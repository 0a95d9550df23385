// Tests of the benchmark's oracle (hand-worked cases) and of its output
// checks: each check passes on the alerts the oracle itself implies and
// fails when one alert is dropped, duplicated, or given a wrong value.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checks.h"
#include "gen.h"
#include "oracle.h"

namespace e2e {
namespace {

TEST(Oracle, TrailingSums) {
  const std::vector<double> sums =
      oracle::TrailingSums({1, 2, 3, 4, 5}, 2);
  EXPECT_EQ(sums[1], 3);
  EXPECT_EQ(sums[2], 5);
  EXPECT_EQ(sums[3], 7);
  EXPECT_EQ(sums[4], 9);
}

TEST(Oracle, CrossingEpisodes) {
  // Window-2 sums from t = 1: 0 5 10 10 5 0 5 10.
  const std::vector<oracle::Episode> eps =
      oracle::CrossingEpisodes({0, 0, 5, 5, 5, 0, 0, 5, 5}, 2, 6.0);
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].start, 3u);
  EXPECT_EQ(eps[0].end, 5u);
  EXPECT_EQ(eps[1].start, 8u);
  EXPECT_EQ(eps[1].end, 9u);  // still alarming when the stream ends
}

TEST(Oracle, PatternDistance) {
  // Each side scaled by 1 / (sqrt(2) * 1): (2, 2) vs (0, 0) -> 2.
  const double window[] = {2, 2};
  EXPECT_DOUBLE_EQ(oracle::PatternDistance(window, {0, 0}, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle::PatternDistance(window, {2, 2}, 1.0), 0.0);
  // r_max rescales: r_max 2 halves the distance.
  EXPECT_DOUBLE_EQ(oracle::PatternDistance(window, {0, 0}, 2.0), 1.0);
}

TEST(Oracle, ZNormDistance) {
  const double a[] = {1, 2, 3};
  const double scaled[] = {2, 4, 6};
  const double reversed[] = {3, 2, 1};
  const double flat[] = {1, 1, 1};
  EXPECT_NEAR(oracle::ZNormDistance(a, scaled, 3), 0.0, 1e-12);
  // z(a) = (-1, 0, 1)/sqrt(2), z(reversed) = -z(a): distance 2.
  EXPECT_NEAR(oracle::ZNormDistance(a, reversed, 3), 2.0, 1e-12);
  // A constant window normalizes to zeros: distance |z(a)| = 1.
  EXPECT_NEAR(oracle::ZNormDistance(a, flat, 3), 1.0, 1e-12);
}

TEST(Oracle, SketchStatistics) {
  // Window 256 in 4 buckets of 64: coverage grows with the open bucket.
  EXPECT_EQ(oracle::SketchCoverage(256, 4, 256), 256u);
  EXPECT_EQ(oracle::SketchCoverage(256, 4, 300), 300u);
  EXPECT_EQ(oracle::SketchCoverage(256, 4, 320), 256u);
  EXPECT_EQ(oracle::SketchCoverage(256, 4, 383), 319u);
  const double v[] = {1, 1, 2, 3, 0.0, -0.0};
  EXPECT_EQ(oracle::DistinctCount(v, 6), 4u);  // -0.0 counts as 0.0
  EXPECT_EQ(oracle::CountAtLeast(v, 6, 2.0), 2u);  // 1 and 0
  EXPECT_EQ(oracle::CountAtLeast(v, 6, 3.0), 0u);
  const auto [lo, hi] = oracle::MinMax(v, 4);
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 3);
}

TEST(Gen, StreamsAreReproducibleAndOnTheGrid) {
  SignalSpec spec;
  spec.pattern_share = 0.5;
  const std::vector<double> a = StreamValues(spec, 7, 3, 5000);
  EXPECT_EQ(a, StreamValues(spec, 7, 3, 5000));
  EXPECT_NE(a, StreamValues(spec, 8, 3, 5000));
  for (double v : a) EXPECT_EQ(v * 1024.0, std::round(v * 1024.0));
}

// --- Checks against one alert dropped, duplicated, or wrong -------------

int Failures(const std::function<void(Report*)>& check) {
  Report report;
  check(&report);
  return static_cast<int>(report.failures());
}

struct Mutations {
  std::vector<AlertRec> dropped, duplicated, wrong;
};

Mutations Mutate(const std::vector<AlertRec>& alerts, std::size_t k,
                 double wrong_value) {
  Mutations m{alerts, alerts, alerts};
  m.dropped.erase(m.dropped.begin() + static_cast<std::ptrdiff_t>(k));
  m.duplicated.push_back(alerts[k]);
  m.wrong[k].value = wrong_value;
  return m;
}

TEST(Checks, Aggregate) {
  SignalSpec spec;  // bursts of 320..640 over baselines of 400..1200
  const std::vector<double> x = StreamValues(spec, 11, 0, 8000);
  QueryDesc q;
  q.kind = QueryDesc::Kind::kAggregate;
  q.id = 1;
  q.window = 64;
  q.threshold = ThresholdFor(64);
  const std::vector<double> sums = oracle::TrailingSums(x, q.window);
  std::vector<AlertRec> alerts;
  for (const oracle::Episode& e :
       oracle::CrossingEpisodes(x, q.window, q.threshold)) {
    AlertRec a;
    a.query = 1;
    a.kind = "aggregate";
    a.end_time = e.start + (e.end - e.start) / 2;  // evaluated mid-episode
    a.value = sums[a.end_time];
    alerts.push_back(a);
  }
  ASSERT_GE(alerts.size(), 3u);
  const Tolerance exact{};
  EXPECT_EQ(Failures([&](Report* r) { CheckAggregate(q, x, alerts, exact, r); }), 0);
  const Mutations m = Mutate(alerts, 1, alerts[1].value + 1.0 / 1024);
  EXPECT_GT(Failures([&](Report* r) { CheckAggregate(q, x, m.dropped, exact, r); }), 0);
  EXPECT_GT(Failures([&](Report* r) { CheckAggregate(q, x, m.duplicated, exact, r); }), 0);
  EXPECT_GT(Failures([&](Report* r) { CheckAggregate(q, x, m.wrong, exact, r); }), 0);
  // An alert inside a gap (between episodes) is no crossing.
  std::vector<AlertRec> stray = alerts;
  stray.push_back(alerts[0]);
  stray.back().end_time = q.window;  // baseline at the start of the stream
  stray.back().value = sums[q.window];
  EXPECT_GT(Failures([&](Report* r) { CheckAggregate(q, x, stray, exact, r); }), 0);
}

TEST(Checks, Pattern) {
  SignalSpec spec;
  spec.pattern_share = 1.0;  // every event is an injected V
  const std::vector<double> x = StreamValues(spec, 12, 0, 8000);
  QueryDesc q;
  q.kind = QueryDesc::Kind::kPattern;
  q.id = 2;
  q.pattern = VPattern();
  q.r_max = 32.0;
  q.radius = 0.05;
  std::vector<AlertRec> alerts;
  for (std::size_t t = q.pattern.size() - 1; t < x.size(); ++t) {
    const double d = oracle::PatternDistance(&x[t + 1 - q.pattern.size()],
                                             q.pattern, q.r_max);
    if (d > q.radius) continue;
    AlertRec a;
    a.query = 2;
    a.kind = "pattern";
    a.end_time = t;
    a.value = d;
    alerts.push_back(a);
  }
  ASSERT_GE(alerts.size(), 3u);
  const Tolerance exact{};
  EXPECT_EQ(Failures([&](Report* r) { CheckPattern(q, x, alerts, exact, r); }), 0);
  const Mutations m = Mutate(alerts, 1, alerts[1].value * 1.01);
  EXPECT_GT(Failures([&](Report* r) { CheckPattern(q, x, m.dropped, exact, r); }), 0);
  EXPECT_GT(Failures([&](Report* r) { CheckPattern(q, x, m.duplicated, exact, r); }), 0);
  EXPECT_GT(Failures([&](Report* r) { CheckPattern(q, x, m.wrong, exact, r); }), 0);
}

TEST(Checks, Sketch) {
  SignalSpec spec;
  spec.categorical_every = 1;  // every stream categorical
  const std::vector<double> x = StreamValues(spec, 13, 0, 4000);
  QueryDesc q;
  q.kind = QueryDesc::Kind::kSketch;
  q.id = 3;
  q.window = 256;
  q.buckets = 4;
  q.sketch = SketchKind::kDistinct;
  q.assess.hi = 2.0;  // always alarming: even calm windows hold 4 values
  AlertRec a;
  a.query = 3;
  a.kind = "sketch";
  a.end_time = 1000;
  const std::uint64_t cover = oracle::SketchCoverage(256, 4, 1001);
  a.value = static_cast<double>(
      oracle::DistinctCount(&x[1001 - cover], cover));
  const Tolerance exact{};
  EXPECT_EQ(Failures([&](Report* r) { CheckSketch(q, x, {a}, exact, r); }), 0);
  AlertRec wrong = a;
  wrong.value = a.value * 2 + 10;
  EXPECT_GT(Failures([&](Report* r) { CheckSketch(q, x, {wrong}, exact, r); }), 0);
  // Heavy hitters: the oracle count at phi is a valid estimate; one less
  // is an undercount.
  q.sketch = SketchKind::kHeavyHitters;
  q.phi = 0.05;
  q.epsilon = 0.01;
  q.assess = Range{};
  q.assess.lo = 100.0;
  a.value = static_cast<double>(oracle::CountAtLeast(
      &x[1001 - cover], cover, q.phi * static_cast<double>(cover)));
  EXPECT_EQ(Failures([&](Report* r) { CheckSketch(q, x, {a}, exact, r); }), 0);
  wrong = a;
  wrong.value = a.value - 1;
  EXPECT_GT(Failures([&](Report* r) { CheckSketch(q, x, {wrong}, exact, r); }), 0);
  // Quantile: a value outside the window's range is impossible for P².
  q.sketch = SketchKind::kQuantile;
  q.assess = Range{};
  q.assess.hi = 0.0;
  a.value = 12.0;
  EXPECT_EQ(Failures([&](Report* r) { CheckSketch(q, x, {a}, exact, r); }), 0);
  wrong = a;
  wrong.value = 40.0;
  EXPECT_GT(Failures([&](Report* r) { CheckSketch(q, x, {wrong}, exact, r); }), 0);
}

TEST(Checks, Correlation) {
  QueryDesc q;
  q.kind = QueryDesc::Kind::kCorrelation;
  q.id = 4;
  q.window = 8;
  q.period = 8;
  q.radius = 0.3;
  // Streams 0 and 1 move together, stream 2 against them.
  const std::vector<double> s0 = {1, 3, 2, 5, 4, 6, 5, 8};
  const std::vector<double> s1 = {2, 6, 4, 10, 8, 12, 10, 16.5};
  const std::vector<double> s2 = {8, 5, 6, 4, 5, 2, 3, 1};
  const std::vector<std::vector<double>> windows = {s0, s1, s2};
  AlertRec a;
  a.query = 4;
  a.kind = "correlation";
  a.stream = 0;
  a.stream_b = 1;
  a.end_time = 7;
  a.value = oracle::ZNormDistance(s0.data(), s1.data(), 8);
  ASSERT_LT(a.value, q.radius);
  const Tolerance exact{};
  EXPECT_EQ(Failures([&](Report* r) {
              CheckCorrelationAlert(q, s0.data(), s1.data(), a, exact, r);
              CheckCorrelationFinal(q, windows, {a}, exact, r);
            }),
            0);
  AlertRec wrong = a;
  wrong.value = a.value + 0.01;
  EXPECT_GT(Failures([&](Report* r) {
              CheckCorrelationAlert(q, s0.data(), s1.data(), wrong, exact, r);
            }),
            0);
  AlertRec uncorrelated = a;
  uncorrelated.stream_b = 2;
  uncorrelated.value = oracle::ZNormDistance(s0.data(), s2.data(), 8);
  EXPECT_GT(Failures([&](Report* r) {
              CheckCorrelationAlert(q, s0.data(), s2.data(), uncorrelated,
                                    exact, r);
            }),
            0);
  EXPECT_GT(Failures([&](Report* r) { CheckCorrelationFinal(q, windows, {}, exact, r); }), 0);
  EXPECT_GT(Failures([&](Report* r) {
              CheckCorrelationFinal(q, windows, {a, a}, exact, r);
            }),
            0);
}

TEST(Checks, SequenceCatchesDroppedAndDuplicatedAlerts) {
  std::vector<AlertRec> alerts(5);
  for (std::size_t i = 0; i < alerts.size(); ++i) alerts[i].seq = i + 1;
  EXPECT_EQ(Failures([&](Report* r) { CheckSequence(alerts, 1, r); }), 0);
  const Mutations m = Mutate(alerts, 2, 0.0);
  EXPECT_GT(Failures([&](Report* r) { CheckSequence(m.dropped, 1, r); }), 0);
  std::vector<AlertRec> dup = alerts;
  dup.insert(dup.begin() + 3, alerts[2]);
  EXPECT_GT(Failures([&](Report* r) { CheckSequence(dup, 1, r); }), 0);
}

TEST(Checks, ParseAlertJson) {
  AlertRec a;
  ASSERT_TRUE(ParseAlertJson(
      "{\"seq\":7,\"query\":3,\"kind\":\"pattern\",\"stream\":5,"
      "\"stream_b\":0,\"window\":32,\"end_time\":511,\"epoch\":14,"
      "\"value\":0.0132,\"threshold\":0.05}",
      &a));
  EXPECT_EQ(a.seq, 7u);
  EXPECT_EQ(a.query, 3u);
  EXPECT_EQ(a.kind, "pattern");
  EXPECT_EQ(a.stream, 5u);
  EXPECT_EQ(a.end_time, 511u);
  EXPECT_DOUBLE_EQ(a.value, 0.0132);
  EXPECT_FALSE(ParseAlertJson("{\"seq\":1}", &a));
}

}  // namespace
}  // namespace e2e
