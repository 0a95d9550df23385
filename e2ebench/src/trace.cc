// The traced run: the same seeded input driven through the layers'
// public functions in one process, with spans recorded by the
// benchmark's own code around each call.
//
// Per frame: net::EncodeBatch + EncodeFrame (encode), FrameParser::Feed/
// Next + DecodeBatch (decode), IngestEngine::PostBatch (post), under one
// "frame" span — the in-process counterpart of a producer's Send ->
// BatchAck. Per epoch: AlertHub::FetchAfter (fetch). A bus sink feeds
// AlertHub::OnAlert (hub). The correlator runs on its background period,
// as in the end-to-end run. At the end: Flush, one synchronous
// TriggerCorrelatorRound (round), Checkpoint and Create(restore_dir).
//
// The input is run three times for a third of the time each, on fresh
// engines: spans off, on, off; the throughput difference between the
// traced pass and the mean of the others is the tracing overhead. Per-layer metrics come from the traced pass, together
// with the program's own counters (ShardMetrics, queries().Metrics(),
// metrics(), the hub and the bus).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "net/alert_hub.h"
#include "net/frame.h"
#include "query/sinks.h"

namespace e2e {
namespace {

using namespace stardust;

enum SpanName : std::uint8_t {
  kFrame,
  kEncode,
  kDecode,
  kPost,
  kRound,
  kFetch,
  kHub,
  kFlush,
  kCheckpoint,
  kRestore,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "frame", "net.encode", "net.decode", "engine.post", "query.correlator.round",
    "net.hub.fetch", "net.hub.on_alert", "engine.flush", "engine.checkpoint",
    "engine.restore"};

constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
  SpanName name;
  std::uint32_t parent;
  std::int64_t start;
  std::int64_t end;
};

/// In-memory span log; summarized when the run ends. A disabled tracer
/// records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }
  std::uint32_t Begin(SpanName name, std::uint32_t parent = kNoParent) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, parent, NowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void End(std::uint32_t id) {
    if (id != kNoParent) spans_[id].end = NowNs();
  }
  void Append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Bus sink feeding the hub, timing each OnAlert on the dispatcher
/// thread into its own log.
class TracingHubSink : public AlertSink {
 public:
  TracingHubSink(std::shared_ptr<net::AlertHub> hub, bool enabled)
      : hub_(std::move(hub)), enabled_(enabled) {}
  void OnAlert(const Alert& alert) override {
    const std::int64_t start = enabled_ ? NowNs() : 0;
    hub_->OnAlert(alert);
    if (enabled_) {
      std::lock_guard<std::mutex> lock(mu_);
      spans_.push_back({kHub, kNoParent, start, NowNs()});
    }
  }
  std::vector<Span> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::shared_ptr<net::AlertHub> hub_;
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

struct PassResult {
  double appends_per_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  std::uint64_t posted = 0;
  std::uint64_t values_per_stream = 0;
  std::vector<AlertRec> alerts;
  // Counters read before the engine stops.
  std::uint64_t appended = 0;
  std::uint64_t stream_sum = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hub_next_seq = 0;
  std::size_t hub_high_water = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::vector<ShardMetricsSnapshot> shards;
  std::vector<QueryMetricsSnapshot> queries;
  std::uint64_t block_waits = 0;
  std::uint64_t correlator_rounds = 0;
  std::uint64_t reannounced = 0;
};

AlertRec ToRec(const net::SequencedAlert& s) {
  AlertRec a;
  a.seq = s.seq;
  a.query = s.alert.query;
  a.kind = QueryKindName(s.alert.kind);
  a.stream = s.alert.stream;
  a.stream_b = s.alert.stream_b;
  a.window = s.alert.window;
  a.end_time = s.alert.end_time;
  a.value = s.alert.value;
  return a;
}

int RunPass(Workload* wl, std::uint64_t seed, double seconds,
            const std::string& work_dir, Tracer* tracer, PassResult* out) {
  Result<std::unique_ptr<IngestEngine>> created = CreateEngine(*wl, "");
  if (!created.ok()) return 1;
  std::unique_ptr<IngestEngine> engine = std::move(created).value();
  if (!RegisterQueries(engine.get(), wl).ok()) return 1;
  auto hub = std::make_shared<net::AlertHub>();
  hub->Attach("trace", 0);
  const bool traced = tracer != nullptr;
  auto sink = std::make_shared<TracingHubSink>(hub, traced);
  engine->alerts().AddSink(sink);
  Tracer off(false);
  Tracer& tr = traced ? *tracer : off;

  std::vector<ProducerInput> inputs;
  for (std::size_t p = 0; p < wl->producers; ++p) inputs.emplace_back(*wl, seed, p);
  std::uint64_t fetched_after = 0;
  std::vector<net::SequencedAlert> batch;
  auto fetch = [&] {
    const std::uint32_t span = tr.Begin(kFetch);
    for (;;) {
      batch.clear();
      if (hub->FetchAfter(fetched_after, 4096, &batch, nullptr) == 0) break;
      for (const net::SequencedAlert& s : batch) out->alerts.push_back(ToRec(s));
      fetched_after = batch.back().seq;
    }
    hub->Ack("trace", fetched_after);
    tr.End(span);
  };

  net::BatchMessage msg, decoded;
  net::FrameParser parser;
  net::Frame frame;
  std::vector<StreamValue> tuples;
  const std::int64_t start = NowNs();
  const std::int64_t limit = static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t epochs = 0;
  do {
    for (std::size_t r = 0; r < wl->rounds_per_epoch; ++r) {
      for (std::size_t p = 0; p < wl->producers; ++p) {
        for (std::size_t c = 0; c < wl->FramesPerRound(); ++c) {
          inputs[p].BuildFrame(*wl, c, &msg);
          const std::uint32_t f = tr.Begin(kFrame);
          std::uint32_t span = tr.Begin(kEncode, f);
          const std::string wire =
              net::EncodeFrame(net::FrameType::kBatch, net::EncodeBatch(msg));
          tr.End(span);
          span = tr.Begin(kDecode, f);
          parser.Feed(wire.data(), wire.size());
          const bool got = parser.Next(&frame) &&
                           net::DecodeBatch(frame.payload, &decoded).ok();
          tr.End(span);
          span = tr.Begin(kPost, f);
          tuples.clear();
          for (const net::StreamRun& run : decoded.runs) {
            for (double v : run.values) tuples.push_back({run.stream, v});
          }
          const bool posted = got && engine->PostBatch(tuples).ok();
          tr.End(span);
          tr.End(f);
          ++out->frames;
          if (!posted) ++out->failed;
          else out->posted += tuples.size();
        }
      }
    }
    ++epochs;
    fetch();
  } while (NowNs() - start < limit);
  std::uint32_t span = tr.Begin(kFlush);
  Status st = engine->Flush();
  tr.End(span);
  const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
  out->appends_per_s = static_cast<double>(out->posted) / elapsed;
  out->values_per_stream = epochs * wl->rounds_per_epoch * wl->ValuesPerRound();
  // Every workload runs the final round, so an idle correlator (no
  // correlation queries) is timed too.
  if (st.ok()) {
    span = tr.Begin(kRound);
    engine->TriggerCorrelatorRound();
    tr.End(span);
    st = engine->Flush();
  }
  if (st.ok()) st = engine->alerts().WaitDrained();
  if (!st.ok()) return 1;
  fetch();

  for (std::size_t s = 0; s < engine->num_streams(); ++s) {
    out->stream_sum += engine->StreamAppendCount(static_cast<StreamId>(s));
  }
  out->appended = engine->metrics().appended.load();
  out->block_waits = engine->metrics().block_waits.load();
  out->correlator_rounds = engine->metrics().correlator_rounds.load();
  out->published = engine->alerts().published();
  out->delivered = engine->alerts().delivered();
  out->hub_next_seq = hub->next_seq();
  out->hub_high_water = hub->replay_high_water();
  out->shards = engine->ShardMetrics();
  out->queries = engine->queries().Metrics();

  if (traced) {
    const std::string dir = work_dir + "/trace-ck";
    span = tr.Begin(kCheckpoint);
    st = engine->Checkpoint(dir);
    tr.End(span);
    if (!st.ok()) return 1;
    out->checkpoint_bytes = DirBytes(dir);
    span = tr.Begin(kRestore);
    Result<std::unique_ptr<IngestEngine>> restored = CreateEngine(*wl, dir);
    tr.End(span);
    if (!restored.ok()) return 1;
    // No value arrives after the restore, so every alert the restored
    // engine publishes re-announces a condition that was already standing
    // at the checkpoint.
    IngestEngine& again = *restored.value();
    again.TriggerCorrelatorRound();
    if (!again.Flush().ok() || !again.alerts().WaitDrained().ok()) return 1;
    out->reannounced = again.alerts().published();
    if (!again.Stop().ok()) return 1;
  }
  if (!engine->Stop().ok()) return 1;
  if (traced) tracer->Append(sink->TakeSpans());
  return 0;
}

struct SpanSummary {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<double> samples;
};

std::vector<SpanSummary> Summarize(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) child[s.parent] += static_cast<double>(s.end - s.start);
  }
  std::vector<SpanSummary> out(kNumSpanNames);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& sum = out[spans[i].name];
    const double d = static_cast<double>(spans[i].end - spans[i].start);
    ++sum.count;
    sum.total_ns += d;
    sum.self_ns += d - child[i];
    sum.samples.push_back(d);
  }
  return out;
}

}  // namespace

int RunTrace(Workload wl, std::uint64_t seed, double seconds,
             const std::string& work_dir, RunOutput* out) {
  // Untraced, traced, untraced: the overhead compares the traced pass
  // with the mean of the two around it, so drift over the run cancels.
  PassResult before, traced, after;
  Tracer tracer(true);
  if (RunPass(&wl, seed, seconds / 3, work_dir, nullptr, &before) != 0 ||
      RunPass(&wl, seed, seconds / 3, work_dir, &tracer, &traced) != 0 ||
      RunPass(&wl, seed, seconds / 3, work_dir, nullptr, &after) != 0) {
    std::fprintf(stderr, "e2ebench: traced run failed\n");
    return 1;
  }
  const double untraced = (before.appends_per_s + after.appends_per_s) / 2;

  // Checks on the traced pass: every alert carries full precision here.
  Report report;
  if (traced.posted != traced.appended || traced.appended != traced.stream_sum ||
      traced.appended != traced.values_per_stream * wl.streams) {
    report.Fail("posted, appended and per-stream counts disagree");
  }
  if (traced.alerts.size() != traced.hub_next_seq - 1 ||
      traced.published != traced.hub_next_seq - 1 ||
      traced.delivered != traced.published) {
    report.Fail("fetched, stamped, published and delivered alerts disagree");
  }
  CheckSequence(traced.alerts, 1, &report);
  std::vector<std::int64_t> trigger;
  CheckAlerts(wl, seed, traced.values_per_stream, traced.alerts, Tolerance{},
              &report, &trigger);

  const std::vector<SpanSummary> spans = Summarize(tracer.spans());
  for (std::size_t i = 0; i < kNumSpanNames; ++i) {
    std::printf("{\"span\": \"%s\", \"count\": %" PRIu64
                ", \"total_ms\": %.3f, \"self_ms\": %.3f, \"p50_ns\": %.0f}\n",
                kSpanNames[i], spans[i].count, spans[i].total_ns * 1e-6,
                spans[i].self_ns * 1e-6, Median(spans[i].samples));
  }
  const double overhead_pct =
      (untraced - traced.appends_per_s) / untraced * 100.0;
  std::printf("{\"trace\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"untraced_appends_per_s\": %.0f, \"traced_appends_per_s\": "
              "%.0f, \"overhead_pct\": %.2f, \"values_per_stream\": %" PRIu64
              ", \"alerts\": %zu, \"appended\": %" PRIu64 ", \"published\": %" PRIu64
              ", \"restore_reannounced\": %" PRIu64 ", \"checks\": %" PRIu64
              ", \"check_failures\": %" PRIu64 "}}\n",
              wl.name.c_str(), seed, untraced, traced.appends_per_s,
              overhead_pct, traced.values_per_stream, traced.alerts.size(),
              traced.appended, traced.published, traced.reannounced,
              report.checked(),
              report.failures());
  for (const std::string& m : report.messages()) {
    std::printf("{\"check_failure\": \"%s\"}\n", m.c_str());
  }

  // Program counters of the traced pass.
  std::uint64_t appended = 0, batches = 0, maintain_ns = 0, hits = 0,
                misses = 0, znorm = 0, sk_appends = 0, sk_merges = 0,
                sk_estimates = 0;
  std::size_t high_water = 0;
  double apply_p50 = 0, apply_p99 = 0;
  for (const ShardMetricsSnapshot& s : traced.shards) {
    appended += s.appended;
    batches += s.batches;
    maintain_ns += s.maintain_ns;
    hits += s.store_hits;
    misses += s.store_misses;
    znorm += s.znorm_computes;
    sk_appends += s.sketch_appends;
    sk_merges += s.sketch_merges;
    sk_estimates += s.sketch_estimates;
    high_water = std::max(high_water, s.queue_high_water);
    apply_p50 = std::max(apply_p50, static_cast<double>(s.apply_batch_p50_ns));
    apply_p99 = std::max(apply_p99, static_cast<double>(s.apply_batch_p99_ns));
  }
  auto eval_ns = [&](QueryKind kind) {
    double nanos = 0, evals = 0;
    for (const QueryMetricsSnapshot& q : traced.queries) {
      if (q.kind != kind) continue;
      nanos += static_cast<double>(q.eval_nanos);
      evals += static_cast<double>(q.evals);
    }
    return evals == 0 ? 0.0 : nanos / evals;
  };
  std::vector<double> frame_us;
  for (double ns : spans[kFrame].samples) frame_us.push_back(ns * 1e-3);
  const double values = static_cast<double>(traced.posted);

  out->correct = report.ok();
  out->attempted = traced.frames;
  out->failed = traced.failed;
  out->Add("net.ack_rtt_us_p50", Median(frame_us), "us");
  out->Add("net.decode_ns_per_value", spans[kDecode].total_ns / values, "ns");
  out->Add("engine.post_ns_per_append", spans[kPost].total_ns / values, "ns");
  out->Add("engine.flush_ms", spans[kFlush].total_ns * 1e-6, "ms");
  out->Add("engine.block_waits", static_cast<double>(traced.block_waits), "count");
  out->Add("engine.queue_high_water", static_cast<double>(high_water), "count");
  out->Add("engine.maintain_ns_per_append",
           appended == 0 ? 0.0 : static_cast<double>(maintain_ns) / appended, "ns");
  out->Add("engine.avg_batch",
           batches == 0 ? 0.0 : static_cast<double>(appended) / batches, "count");
  out->Add("engine.apply_batch_p50_ns", apply_p50, "ns");
  out->Add("engine.apply_batch_p99_ns", apply_p99, "ns");
  out->Add("pipeline.store_hits", static_cast<double>(hits), "count");
  out->Add("pipeline.store_misses", static_cast<double>(misses), "count");
  out->Add("pipeline.znorm_computes", static_cast<double>(znorm), "count");
  out->Add("query.aggregate.eval_ns", eval_ns(QueryKind::kAggregate), "ns");
  out->Add("query.pattern.eval_ns", eval_ns(QueryKind::kPattern), "ns");
  out->Add("query.sketch.eval_ns", eval_ns(QueryKind::kSketch), "ns");
  // The final synchronous round; the background rounds are counted.
  out->Add("query.correlator.round_ms", spans[kRound].total_ns * 1e-6, "ms");
  out->Add("query.correlator.rounds", static_cast<double>(traced.correlator_rounds),
           "count");
  out->Add("sketch.appends", static_cast<double>(sk_appends), "count");
  out->Add("sketch.merges", static_cast<double>(sk_merges), "count");
  out->Add("sketch.estimates", static_cast<double>(sk_estimates), "count");
  out->Add("net.hub.replay_high_water", static_cast<double>(traced.hub_high_water),
           "count");
  out->Add("alerts.delivered", static_cast<double>(traced.delivered), "count");
  out->Add("engine.checkpoint_bytes_per_stream",
           static_cast<double>(traced.checkpoint_bytes) / wl.streams, "bytes");
  out->Add("trace.appends_per_s", traced.appends_per_s, "appends/s");
  out->Add("trace.overhead_pct", overhead_pct, "%");
  return 0;
}

}  // namespace e2e
