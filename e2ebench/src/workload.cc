#include "workload.h"

#include <sched.h>

#include <cstdio>
#include <limits>
#include <thread>

#include "dsl/monitor.h"
#include "dsl/text.h"

namespace e2e {

using namespace stardust;

namespace {

constexpr double kPatternRadius = 0.05;
constexpr double kPatternRMax = 32.0;
constexpr double kCorrelationRadius = 0.3;
constexpr std::size_t kCorrelationBase = 32;
constexpr std::size_t kCorrelationLevels = 2;

QueryDesc AggregateQuery(std::size_t window) {
  QueryDesc q;
  q.kind = QueryDesc::Kind::kAggregate;
  q.window = window;
  q.threshold = ThresholdFor(window);
  return q;
}

QueryDesc PatternQuery() {
  QueryDesc q;
  q.kind = QueryDesc::Kind::kPattern;
  q.pattern = VPattern();
  q.window = q.pattern.size();
  q.radius = kPatternRadius;
  q.r_max = kPatternRMax;
  return q;
}

QueryDesc CorrelationQuery() {
  QueryDesc q;
  q.kind = QueryDesc::Kind::kCorrelation;
  q.window = kCorrelationBase << (kCorrelationLevels - 1);
  q.period = kCorrelationBase;
  q.radius = kCorrelationRadius;
  return q;
}

QueryDesc SketchQuery(SketchKind kind, Range assess) {
  QueryDesc q;
  q.kind = QueryDesc::Kind::kSketch;
  q.sketch = kind;
  q.window = 256;
  q.buckets = 4;
  q.precision = 10;
  q.epsilon = 0.01;
  q.phi = 0.3;
  q.assess = assess;
  return q;
}

std::string SumMonitorDoc(std::size_t window) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "monitors:\n"
                "  - name: fleet_sum_%zu\n"
                "    measure: sum\n"
                "    window: %zu\n"
                "    assess: \"<%.17g\"\n",
                window, window, ThresholdFor(window));
  return buf;
}

// The three sketch monitors of unified-mixed; mirrored by SketchQuery
// descriptions in MakeWorkload.
constexpr const char* kSketchMonitorDoc =
    "monitors:\n"
    "  - name: variety\n"
    "    measure: distinct\n"
    "    window: 256\n"
    "    assess: \"<=10\"\n"
    "    buckets: 4\n"
    "    precision: 10\n"
    "  - name: dominant\n"
    "    measure: heavy_hitters\n"
    "    window: 256\n"
    "    assess: \">=1\"\n"
    "    buckets: 4\n"
    "    epsilon: 0.01\n"
    "    depth: 4\n"
    "    phi: 0.3\n"
    "    candidates: 32\n"
    "  - name: median\n"
    "    measure: quantile\n"
    "    window: 256\n"
    "    assess: \"<11.5\"\n"
    "    buckets: 4\n"
    "    q: 0.5\n";

}  // namespace

bool MakeWorkload(const std::string& name, Workload* out) {
  Workload wl;
  wl.name = name;
  if (name == "fleet-aggregate") {
    wl.signal.noise = 2.0;
    wl.signal.first_gap = 320;
    wl.signal.gap_min = 400;
    wl.signal.gap_max = 1200;
    wl.signal.burst_min = 320;
    wl.signal.burst_max = 640;
    wl.streams = 1024;
    wl.streams_per_frame = 16;
    wl.run_len = 64;
    wl.cycles = 1;
    wl.rounds_per_epoch = 1;
    // About three live checkpoints per 30 s run: each slows ingest for an
    // I/O-bound time, so more of them set the throughput's run-to-run
    // spread (README.md, "Live checkpoints").
    wl.checkpoint_every_epochs = 288;
    wl.segments = 8;
    wl.fleet_levels = 5;
    wl.fleet_history = 512;
    for (std::size_t w : {16, 64, 256}) wl.queries.push_back(AggregateQuery(w));
    wl.queries.push_back(AggregateQuery(128));
    wl.dsl = SumMonitorDoc(128);
    wl.dsl_monitors = 1;
  } else if (name == "unified-mixed") {
    wl.signal.noise = 0.5;
    wl.signal.factor_amp = 3.0;
    wl.signal.group_size = 8;
    wl.signal.first_gap = 150;
    wl.signal.gap_min = 150;
    wl.signal.gap_max = 450;
    wl.signal.burst_min = 100;
    wl.signal.burst_max = 250;
    wl.signal.pattern_share = 0.5;
    wl.signal.categorical_every = 8;
    wl.streams = 256;
    wl.streams_per_frame = 128;
    wl.run_len = 1;
    wl.cycles = 4;
    wl.rounds_per_epoch = 8;
    wl.segments = 6;
    wl.patterns = true;
    wl.correlation = true;
    wl.fleet_levels = 3;
    wl.fleet_history = 256;
    wl.queries.push_back(AggregateQuery(16));
    wl.queries.push_back(AggregateQuery(64));
    wl.queries.push_back(PatternQuery());
    wl.queries.push_back(CorrelationQuery());
    Range variety;
    variety.hi = 10.0;
    Range dominant;
    dominant.lo = 1.0;
    Range median;
    median.hi = 11.5;
    median.hi_inclusive = false;
    wl.queries.push_back(SketchQuery(SketchKind::kDistinct, variety));
    wl.queries.push_back(SketchQuery(SketchKind::kHeavyHitters, dominant));
    wl.queries.push_back(SketchQuery(SketchKind::kQuantile, median));
    wl.dsl = kSketchMonitorDoc;
    wl.dsl_monitors = 3;
  } else if (name == "paced-detect") {
    wl.signal.noise = 1.0;
    wl.signal.first_gap = 150;
    wl.signal.gap_min = 150;
    wl.signal.gap_max = 450;
    wl.signal.burst_min = 80;
    wl.signal.burst_max = 200;
    wl.signal.pattern_share = 0.3;
    wl.streams = 256;
    wl.streams_per_frame = 128;
    wl.run_len = 1;
    wl.cycles = 1;
    wl.rounds_per_epoch = 50;
    // 2 x 128 values every 3 ms, 85k values/s: about a fifth of this
    // query set's closed-loop throughput (README.md, "The paced rate").
    wl.frame_period_us = 3000.0;
    wl.segments = 3;
    wl.patterns = true;
    wl.fleet_levels = 3;
    wl.fleet_history = 256;
    wl.queries.push_back(AggregateQuery(16));
    wl.queries.push_back(AggregateQuery(64));
    wl.queries.push_back(PatternQuery());
  } else {
    return false;
  }
  *out = std::move(wl);
  return true;
}

std::vector<std::uint32_t> OwnedStreams(const Workload& wl, std::size_t p) {
  std::vector<std::uint32_t> owned;
  for (std::size_t s = p; s < wl.streams; s += wl.producers) {
    owned.push_back(static_cast<std::uint32_t>(s));
  }
  return owned;
}

StardustConfig FleetConfig(const Workload& wl) {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 16;
  config.num_levels = wl.fleet_levels;
  config.history = wl.fleet_history;
  config.box_capacity = 4;
  config.update_period = 1;
  return config;
}

EngineConfig EngineConfigFor(const Workload& wl) {
  EngineConfig config;
  config.num_shards = wl.shards;
  config.queue_capacity = 4096;
  config.max_producers = 4;
  config.overload = OverloadPolicy::kBlock;
  config.max_batch = 256;
  // Shard s runs on core s; PinProcessToSpareCores keeps every other
  // thread of both processes off those cores (see README.md).
  config.pin_shards = std::thread::hardware_concurrency() >= 2 * wl.shards;
  config.query.enable_patterns = wl.patterns;
  StardustConfig& pattern = config.query.pattern;
  pattern.transform = TransformKind::kDwt;
  pattern.normalization = Normalization::kUnitSphere;
  pattern.coefficients = 4;
  pattern.r_max = kPatternRMax;
  pattern.base_window = 16;
  pattern.num_levels = 2;
  pattern.history = 256;
  pattern.box_capacity = 1;
  pattern.update_period = 1;
  pattern.index_features = true;
  config.query.enable_correlation = wl.correlation;
  StardustConfig& corr = config.query.correlation;
  corr.transform = TransformKind::kDwt;
  corr.normalization = Normalization::kZNorm;
  corr.coefficients = 4;
  corr.base_window = kCorrelationBase;
  corr.num_levels = kCorrelationLevels;
  corr.history = 128;
  corr.box_capacity = 1;
  corr.update_period = kCorrelationBase;
  config.query.correlator_period_ms = 1000;
  config.query.correlator_probe_workers = 1;
  config.query.alert_capacity = 4096;
  config.query.alert_overflow = OverloadPolicy::kBlock;
  return config;
}

void PinProcessToSpareCores(const Workload& wl) {
  const std::size_t cores = std::thread::hardware_concurrency();
  if (cores < 2 * wl.shards) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = wl.shards; c < cores; ++c) CPU_SET(c, &set);
  // Best effort: an unpinned run still measures correctly, only noisier.
  (void)sched_setaffinity(0, sizeof set, &set);
}

Result<std::unique_ptr<IngestEngine>> CreateEngine(
    const Workload& wl, const std::string& restore_dir) {
  // The fleet's own alarm threshold is parked out of reach: every alert
  // comes from a registered query.
  return IngestEngine::Create(FleetConfig(wl), {{16, 1e18}}, wl.streams,
                              EngineConfigFor(wl), restore_dir);
}

Status RegisterQueries(IngestEngine* engine, Workload* wl) {
  const std::size_t native = wl->queries.size() - wl->dsl_monitors;
  for (std::size_t i = 0; i < native; ++i) {
    QueryDesc& q = wl->queries[i];
    QuerySpec spec;
    switch (q.kind) {
      case QueryDesc::Kind::kAggregate:
        spec = QuerySpec::Aggregate(q.window, q.threshold);
        break;
      case QueryDesc::Kind::kPattern:
        spec = QuerySpec::Pattern(q.pattern, q.radius);
        break;
      case QueryDesc::Kind::kCorrelation:
        spec = QuerySpec::Correlation(q.radius);
        break;
      case QueryDesc::Kind::kSketch:
        return Status::InvalidArgument("sketch queries come from the DSL");
    }
    Result<QueryId> id = engine->RegisterQuery(spec);
    if (!id.ok()) return id.status();
    q.id = id.value();
  }
  if (wl->dsl_monitors == 0) return Status::OK();
  const std::string source = "<" + wl->name + " monitors>";
  Result<dsl::TextNode> doc = dsl::ParseTextDocument(wl->dsl, source);
  if (!doc.ok()) return doc.status();
  const dsl::TextNode* monitors = doc.value().Get("monitors");
  if (monitors == nullptr || monitors->items.size() != wl->dsl_monitors) {
    return Status::InvalidArgument("monitor document does not match");
  }
  for (std::size_t i = 0; i < wl->dsl_monitors; ++i) {
    Result<dsl::MonitorDef> def =
        dsl::MonitorFromNode(monitors->items[i], source);
    if (!def.ok()) return def.status();
    Result<QuerySpec> spec =
        dsl::CompileMonitor(def.value(), AggregateKind::kSum);
    if (!spec.ok()) return spec.status();
    Result<QueryId> id = engine->RegisterQuery(spec.value());
    if (!id.ok()) return id.status();
    wl->queries[native + i].id = id.value();
  }
  return Status::OK();
}

}  // namespace e2e
