// Sketch measure maintenance cost: batched AppendRun vs tuple-at-a-time,
// and the cost of one windowed Estimate().
//
// Drives each sketch kind (approximate distinct, heavy hitters, windowed
// quantile) the way the per-shard pipeline does — one measure per stream,
// tuples arriving tick-interleaved across all streams — in three modes
// over identical data:
//
//   scalar   tuple-at-a-time in arrival order: every tick touches every
//            stream's measure once (one virtual Append per tuple), so the
//            working set cycles through all streams' sketch state
//   batched  the columnar path: `run` ticks are buffered, regrouped into
//            per-stream runs, and applied with one AppendRun per run, so
//            one stream's state stays hot for the whole run
//   estimate the batched mode plus one Estimate() per applied run, as the
//            shard evaluates each touched stream after a batch; only the
//            Estimate() calls are timed, reported as estimate_ns per call
//
// Each stream sees the same values in the same order in every mode, and
// AppendRun is state-identical to n scalar Appends, so all modes end in
// identical sketch state — the estimate digest printed per line proves
// it. One JSON line per (kind, run length) on stdout with ns/append,
// ns/estimate, bytes/stream, and the batched speedup; prose to stderr:
//
//   $ ./build/bench/bench_sketch > BENCH_SKETCH.json
//
// STARDUST_FULL=1 scales the step count up 8x.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "sketch/measure.h"

namespace {

using namespace stardust;

constexpr std::size_t kStreams = 64;

SketchConfig ConfigFor(SketchKind kind) {
  SketchConfig config;
  config.kind = kind;
  config.window = 1024;
  config.buckets = 4;
  config.hll_precision = 12;
  config.epsilon = 0.01;
  config.depth = 4;
  config.phi = 0.05;
  config.candidates = 32;
  config.q = 0.9;
  return config;
}

enum class Mode { kScalar, kBatched, kEstimate };

struct ModeResult {
  double ns_per_append = 0.0;
  double ns_per_estimate = 0.0;  // kEstimate only
  double estimate_digest = 0.0;
  std::size_t bytes_per_stream = 0;
};

/// Feeds `steps` ticks of `kStreams` streams, tuple-at-a-time in arrival
/// order (tick-interleaved) or columnar-batched in per-stream runs of
/// `run` ticks, the latter optionally followed by one estimate per
/// stream per run. Each stream sees the same per-stream value sequence in
/// every mode.
ModeResult RunMode(SketchKind kind, std::size_t steps, std::size_t run,
                   Mode mode) {
  const SketchConfig config = ConfigFor(kind);
  std::vector<std::unique_ptr<SketchMeasure>> measures;
  for (std::size_t s = 0; s < kStreams; ++s) {
    measures.push_back(CreateSketchMeasure(config));
  }
  // Stream-major value matrix: values[s * steps + t] is stream s at tick
  // t — integer-ish codes with a skewed hot set, the shape all three
  // sketches care about. Generated up front so the timed loop is pure
  // maintenance.
  Rng rng(bench::BenchSeed());
  std::vector<double> values(kStreams * steps);
  for (double& v : values) {
    const double roll = rng.NextDouble(0.0, 1.0);
    v = roll < 0.3 ? std::floor(rng.NextDouble(0.0, 4.0))
                   : std::floor(rng.NextDouble(0.0, 4096.0));
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  Clock::duration estimating{};
  std::uint64_t appends = 0;
  std::uint64_t estimates = 0;
  for (std::size_t at = 0; at < steps; at += run) {
    const std::size_t n = std::min(run, steps - at);
    if (mode != Mode::kScalar) {
      // Columnar: the batch is regrouped per stream, one AppendRun per
      // stream covering the whole batch of ticks.
      for (std::size_t s = 0; s < kStreams; ++s) {
        measures[s]->AppendRun(values.data() + s * steps + at, n);
      }
      if (mode == Mode::kEstimate && measures[0]->Ready()) {
        // Every stream has seen the same number of values, so all are
        // ready together.
        const auto estimate_start = Clock::now();
        for (auto& measure : measures) measure->Estimate();
        estimating += Clock::now() - estimate_start;
        estimates += kStreams;
      }
    } else {
      // Arrival order: tick by tick across every stream.
      for (std::size_t t = at; t < at + n; ++t) {
        for (std::size_t s = 0; s < kStreams; ++s) {
          measures[s]->Append(values[s * steps + t]);
        }
      }
    }
    appends += n * kStreams;
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start - estimating)
          .count();

  ModeResult result;
  result.ns_per_append =
      seconds * 1e9 / static_cast<double>(appends == 0 ? 1 : appends);
  result.ns_per_estimate =
      std::chrono::duration<double, std::nano>(estimating).count() /
      static_cast<double>(estimates == 0 ? 1 : estimates);
  for (auto& measure : measures) {
    result.estimate_digest += measure->Estimate();
    result.bytes_per_stream = measure->MemoryBytes();
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintHeaderStderr(
      "Sketch maintenance: batched AppendRun vs tuple-at-a-time",
      "sketch measures over the Section 2.1 fleet deployment "
      "(src/sketch, docs/DSL.md)");
  const std::size_t steps = bench::FullScale() ? 1u << 19 : 1u << 16;

  const SketchKind kinds[] = {SketchKind::kDistinct,
                              SketchKind::kHeavyHitters,
                              SketchKind::kQuantile};
  const std::size_t runs[] = {1, 8, 64, 256};
  double geomean[sizeof(runs) / sizeof(runs[0])];
  for (double& g : geomean) g = 1.0;
  for (const SketchKind kind : kinds) {
    for (std::size_t ri = 0; ri < sizeof(runs) / sizeof(runs[0]); ++ri) {
      const std::size_t run = runs[ri];
      const ModeResult scalar = RunMode(kind, steps, run, Mode::kScalar);
      const ModeResult batched = RunMode(kind, steps, run, Mode::kBatched);
      const ModeResult estimated =
          RunMode(kind, steps, run, Mode::kEstimate);
      const double speedup =
          batched.ns_per_append == 0.0
              ? 0.0
              : scalar.ns_per_append / batched.ns_per_append;
      if (scalar.estimate_digest != batched.estimate_digest ||
          estimated.estimate_digest != batched.estimate_digest) {
        std::fprintf(stderr,
                     "DIGEST MISMATCH kind=%s run=%zu %.6f / %.6f / %.6f\n",
                     SketchKindName(kind), run, scalar.estimate_digest,
                     batched.estimate_digest, estimated.estimate_digest);
        return 1;
      }
      std::printf(
          "{\"bench\":\"sketch\",\"kind\":\"%s\",\"run\":%zu,"
          "\"streams\":%zu,\"steps\":%zu,"
          "\"scalar_ns_per_append\":%.1f,"
          "\"batched_ns_per_append\":%.1f,"
          "\"speedup\":%.2f,\"estimate_ns\":%.1f,"
          "\"bytes_per_stream\":%zu,\"estimate_digest\":%.3f}\n",
          SketchKindName(kind), run, kStreams, steps,
          scalar.ns_per_append, batched.ns_per_append, speedup,
          estimated.ns_per_estimate, batched.bytes_per_stream,
          batched.estimate_digest);
      std::fprintf(stderr,
                   "  %-13s run %3zu: scalar %7.1f ns  batched %7.1f ns  "
                   "(%.2fx)  estimate %8.1f ns\n",
                   SketchKindName(kind), run, scalar.ns_per_append,
                   batched.ns_per_append, speedup,
                   estimated.ns_per_estimate);
      geomean[ri] *= speedup;
    }
  }
  // Geometric mean across the three kinds per run length — the standard
  // aggregate for speedup ratios. The union-mergeable sketches (HLL,
  // CountMin) gain the most from columnar regrouping; the P² quantile is
  // compute-bound per observation, so batching only amortizes dispatch
  // and state residency there.
  const std::size_t num_kinds = sizeof(kinds) / sizeof(kinds[0]);
  for (std::size_t ri = 0; ri < sizeof(runs) / sizeof(runs[0]); ++ri) {
    const double g = std::pow(geomean[ri], 1.0 / num_kinds);
    std::printf(
        "{\"bench\":\"sketch_summary\",\"run\":%zu,\"streams\":%zu,"
        "\"steps\":%zu,\"geomean_speedup\":%.2f}\n",
        runs[ri], kStreams, steps, g);
    std::fprintf(stderr, "  geomean       run %3zu: %.2fx\n", runs[ri], g);
  }
  return 0;
}
