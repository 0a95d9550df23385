#include "sketch/measure.h"

#include <algorithm>

#include "common/check.h"

namespace stardust {

namespace {

/// Values per ring bucket: ceil(window / buckets), at least 1, so the
/// `buckets` full buckets always cover >= window values.
std::uint64_t BucketWidth(const SketchConfig& config) {
  const std::uint64_t w =
      (config.window + config.buckets - 1) / config.buckets;
  return w == 0 ? 1 : w;
}

/// Windowed distinct count: ring of buckets+1 HLLs; the newest bucket
/// absorbs arrivals, a full bucket rotates the ring onto the oldest, and
/// the estimate is the union (register max) of every live bucket, so
/// coverage stays in [window, window + bucket_width). The union is kept
/// live with a histogram of its register values: an arrival that raises a
/// head register raises the union register with it, a rotation lowers the
/// union registers that only the evicted bucket held, and Estimate() reads
/// only the histogram — bit-identical to estimating a merged copy of the
/// live buckets.
class DistinctMeasure final : public SketchMeasure {
 public:
  explicit DistinctMeasure(const SketchConfig& config)
      : config_(config),
        width_(BucketWidth(config)),
        union_(std::size_t{1} << config.hll_precision, 0) {
    ring_.reserve(config.buckets + 1);
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.hll_precision);
    }
    RebuildUnion();
  }

  void Append(double value) override { AppendRun(&value, 1); }

  void AppendRun(const double* values, std::size_t n) override {
    appends_ += n;
    total_ += n;
    while (n > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, width_ - fill_));
      // The union dominates every bucket, so only a head register that
      // rises can raise it.
      ring_[head_].AddSpan(values, take,
                           [this](std::size_t index, std::uint8_t rank) {
                             if (rank > union_[index]) SetUnion(index, rank);
                           });
      values += take;
      n -= take;
      fill_ += take;
      if (fill_ == width_) {
        head_ = (head_ + 1) % ring_.size();
        EvictHead();
        ring_[head_].Clear();
        fill_ = 0;
      }
    }
  }

  bool Ready() const override { return total_ >= config_.window; }

  double Estimate() const override {
    ++estimate_calls_;
    return HyperLogLog::EstimateFromHistogram(histogram_, union_.size());
  }

  std::size_t MemoryBytes() const override {
    return (ring_.size() + 1) * union_.size() + sizeof(histogram_);
  }

  void SaveTo(Writer* writer) const override {
    writer->U64(total_);
    writer->U64(head_);
    writer->U64(fill_);
    writer->U64(appends_);
    writer->U64(merges_);
    writer->U64(estimate_calls_);
    for (const HyperLogLog& bucket : ring_) bucket.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) override {
    std::uint64_t head = 0;
    SD_RETURN_NOT_OK(reader->U64(&total_));
    SD_RETURN_NOT_OK(reader->U64(&head));
    SD_RETURN_NOT_OK(reader->U64(&fill_));
    if (head >= ring_.size() || fill_ >= width_) {
      return Status::InvalidArgument("distinct sketch snapshot ring state");
    }
    head_ = static_cast<std::size_t>(head);
    SD_RETURN_NOT_OK(reader->U64(&appends_));
    SD_RETURN_NOT_OK(reader->U64(&merges_));
    SD_RETURN_NOT_OK(reader->U64(&estimate_calls_));
    for (HyperLogLog& bucket : ring_) {
      SD_RETURN_NOT_OK(bucket.RestoreFrom(reader));
    }
    RebuildUnion();
    return Status::OK();
  }

 private:
  void SetUnion(std::size_t index, std::uint8_t rank) {
    std::uint8_t& u = union_[index];
    --histogram_[u];
    ++histogram_[rank];
    u = rank;
  }

  /// Re-unions the live buckets other than the head (about to be cleared)
  /// at the registers where the head held the union's value; no other
  /// union register can fall.
  void EvictHead() {
    const std::uint8_t* evicted = ring_[head_].registers();
    for (std::size_t i = 0; i < union_.size(); ++i) {
      if (evicted[i] == 0 || evicted[i] != union_[i]) continue;
      std::uint8_t rest = 0;
      for (std::size_t b = 0; b < ring_.size(); ++b) {
        if (b != head_) rest = std::max(rest, ring_[b].registers()[i]);
      }
      SetUnion(i, rest);
    }
    merges_ += ring_.size() - 1;
  }

  void RebuildUnion() {
    std::fill(union_.begin(), union_.end(), 0);
    for (const HyperLogLog& bucket : ring_) {
      for (std::size_t i = 0; i < union_.size(); ++i) {
        union_[i] = std::max(union_[i], bucket.registers()[i]);
      }
    }
    HyperLogLog::FillHistogram(union_.data(), union_.size(), &histogram_);
  }

  SketchConfig config_;
  std::uint64_t width_;
  std::vector<HyperLogLog> ring_;
  std::size_t head_ = 0;
  std::uint64_t fill_ = 0;
  std::uint64_t total_ = 0;
  // Derived from ring_, not serialized: register max over the live
  // buckets, and the histogram of its register values.
  std::vector<std::uint8_t> union_;
  HyperLogLog::RankHistogram histogram_{};
};

/// Windowed heavy-hitter count over the same ring as DistinctMeasure, of
/// CountMins. `closed_` holds the counter sum of the live buckets other
/// than the head, and `closed_candidates_` the union of their candidate
/// sets; a rotation adds the filled head into `closed_` and subtracts the
/// evicted bucket, in one pass, before clearing it. Estimate() counts the
/// distinct values among all live buckets' candidates whose row minimum
/// over the window counters (`closed_` plus the head) is at least phi
/// times the window total. The window counters equal a merged copy's, so
/// every counted value keeps CountMin's bounds: never under its true
/// window frequency, over it by at most epsilon * window total.
class HeavyHittersMeasure final : public SketchMeasure {
 public:
  explicit HeavyHittersMeasure(const SketchConfig& config)
      : config_(config),
        width_(BucketWidth(config)),
        closed_(config.epsilon, config.depth, config.candidates) {
    ring_.reserve(config.buckets + 1);
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.epsilon, config.depth, config.candidates);
    }
  }

  void Append(double value) override { AppendRun(&value, 1); }

  void AppendRun(const double* values, std::size_t n) override {
    appends_ += n;
    total_ += n;
    while (n > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, width_ - fill_));
      ring_[head_].AddSpan(values, take);
      values += take;
      n -= take;
      fill_ += take;
      if (fill_ == width_) {
        const std::size_t filled = head_;
        head_ = (head_ + 1) % ring_.size();
        SD_CHECK(closed_.SlideCounters(ring_[filled], ring_[head_]).ok());
        ring_[head_].Clear();
        fill_ = 0;
        CollectClosedCandidates();
        merges_ += ring_.size() - 1;
      }
    }
  }

  bool Ready() const override { return total_ >= config_.window; }

  double Estimate() const override {
    ++estimate_calls_;
    const CountMin& head = ring_[head_];
    const double cutoff =
        config_.phi * static_cast<double>(closed_.total() + head.total());
    const auto heavy = [&](std::uint64_t bits) {
      return static_cast<double>(closed_.EstimateBitsPlus(head, bits)) >=
             cutoff;
    };
    // The head adds at most its largest counter to any estimate, which
    // rules out most candidates without hashing them.
    const std::uint64_t head_max = head.max_count();
    std::size_t hitters = 0;
    for (const ClosedCandidate& c : closed_candidates_) {
      if (static_cast<double>(c.closed_estimate + head_max) >= cutoff &&
          heavy(c.bits)) {
        ++hitters;
      }
    }
    if (static_cast<double>(closed_.max_count() + head_max) < cutoff) {
      return static_cast<double>(hitters);
    }
    for (const CountMin::Candidate& c : head.candidates()) {
      if (heavy(c.bits) && !IsClosedCandidate(c.bits)) ++hitters;
    }
    return static_cast<double>(hitters);
  }

  std::size_t MemoryBytes() const override {
    return (ring_.size() + 1) * closed_.MemoryBytes() +
           closed_candidates_.capacity() * sizeof(ClosedCandidate);
  }

  void SaveTo(Writer* writer) const override {
    writer->U64(total_);
    writer->U64(head_);
    writer->U64(fill_);
    writer->U64(appends_);
    writer->U64(merges_);
    writer->U64(estimate_calls_);
    for (const CountMin& bucket : ring_) bucket.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) override {
    std::uint64_t head = 0;
    SD_RETURN_NOT_OK(reader->U64(&total_));
    SD_RETURN_NOT_OK(reader->U64(&head));
    SD_RETURN_NOT_OK(reader->U64(&fill_));
    if (head >= ring_.size() || fill_ >= width_) {
      return Status::InvalidArgument(
          "heavy-hitter sketch snapshot ring state");
    }
    head_ = static_cast<std::size_t>(head);
    SD_RETURN_NOT_OK(reader->U64(&appends_));
    SD_RETURN_NOT_OK(reader->U64(&merges_));
    SD_RETURN_NOT_OK(reader->U64(&estimate_calls_));
    for (CountMin& bucket : ring_) {
      SD_RETURN_NOT_OK(bucket.RestoreFrom(reader));
    }
    closed_.Clear();
    for (std::size_t b = 0; b < ring_.size(); ++b) {
      if (b != head_) SD_RETURN_NOT_OK(closed_.AddCounters(ring_[b]));
    }
    CollectClosedCandidates();
    return Status::OK();
  }

 private:
  struct ClosedCandidate {
    std::uint64_t bits = 0;
    std::uint64_t closed_estimate = 0;  // row minimum over closed_
  };

  /// Union of the non-head buckets' candidates, sorted by value bits,
  /// less those that cannot count before the next rotation: until then
  /// the head adds less than a bucket width to any counter, and the
  /// cutoff is at least phi times closed_'s total.
  void CollectClosedCandidates() {
    const double floor = config_.phi * static_cast<double>(closed_.total());
    closed_candidates_.clear();
    for (std::size_t b = 0; b < ring_.size(); ++b) {
      if (b == head_) continue;
      for (const CountMin::Candidate& c : ring_[b].candidates()) {
        const std::uint64_t estimate = closed_.EstimateBits(c.bits);
        if (static_cast<double>(estimate + width_) >= floor) {
          closed_candidates_.push_back({c.bits, estimate});
        }
      }
    }
    std::sort(closed_candidates_.begin(), closed_candidates_.end(),
              [](const ClosedCandidate& x, const ClosedCandidate& y) {
                return x.bits < y.bits;
              });
    closed_candidates_.erase(
        std::unique(closed_candidates_.begin(), closed_candidates_.end(),
                    [](const ClosedCandidate& x, const ClosedCandidate& y) {
                      return x.bits == y.bits;
                    }),
        closed_candidates_.end());
  }

  bool IsClosedCandidate(std::uint64_t bits) const {
    const auto it = std::lower_bound(
        closed_candidates_.begin(), closed_candidates_.end(), bits,
        [](const ClosedCandidate& c, std::uint64_t b) { return c.bits < b; });
    return it != closed_candidates_.end() && it->bits == bits;
  }

  SketchConfig config_;
  std::uint64_t width_;
  std::vector<CountMin> ring_;
  std::size_t head_ = 0;
  std::uint64_t fill_ = 0;
  std::uint64_t total_ = 0;
  // Derived from ring_, not serialized (closed_'s own candidate set stays
  // empty).
  CountMin closed_;
  std::vector<ClosedCandidate> closed_candidates_;
};

/// Windowed quantile. P² markers are not mergeable, so instead of a
/// bucket union this keeps buckets+1 staggered estimators that each see
/// every arrival: on each bucket boundary the longest-lived estimator is
/// reset and reborn as the youngest, so the current oldest always covers
/// between window and window + bucket_width trailing values.
class QuantileMeasure final : public SketchMeasure {
 public:
  explicit QuantileMeasure(const SketchConfig& config)
      : config_(config), width_(BucketWidth(config)) {
    ring_.reserve(config.buckets + 1);
    for (std::uint64_t i = 0; i <= config.buckets; ++i) {
      ring_.emplace_back(config.q);
    }
  }

  void Append(double value) override { AppendRun(&value, 1); }

  void AppendRun(const double* values, std::size_t n) override {
    appends_ += n;
    total_ += n;
    while (n > 0) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, width_ - fill_));
      // Every staggered estimator sees every value. Single values take
      // the in-place scalar update; real spans keep each estimator's
      // marker state in locals for the whole chunk — both inline the same
      // per-observation update, so the two are state-identical.
      if (take == 1) {
        for (P2Quantile& est : ring_) est.Add(values[0]);
      } else {
        for (P2Quantile& est : ring_) est.AddSpan(values, take);
      }
      values += take;
      n -= take;
      fill_ += take;
      if (fill_ == width_) {
        ring_[oldest_] = P2Quantile(config_.q);
        oldest_ = (oldest_ + 1) % ring_.size();
        fill_ = 0;
      }
    }
  }

  bool Ready() const override { return total_ >= config_.window; }

  double Estimate() const override {
    ++estimate_calls_;
    return ring_[oldest_].Value();
  }

  std::size_t MemoryBytes() const override {
    return ring_.size() * sizeof(P2Quantile);
  }

  void SaveTo(Writer* writer) const override {
    writer->U64(total_);
    writer->U64(oldest_);
    writer->U64(fill_);
    writer->U64(appends_);
    writer->U64(merges_);
    writer->U64(estimate_calls_);
    for (const P2Quantile& est : ring_) est.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) override {
    std::uint64_t oldest = 0;
    SD_RETURN_NOT_OK(reader->U64(&total_));
    SD_RETURN_NOT_OK(reader->U64(&oldest));
    SD_RETURN_NOT_OK(reader->U64(&fill_));
    if (oldest >= ring_.size() || fill_ >= width_) {
      return Status::InvalidArgument("quantile sketch snapshot ring state");
    }
    oldest_ = static_cast<std::size_t>(oldest);
    SD_RETURN_NOT_OK(reader->U64(&appends_));
    SD_RETURN_NOT_OK(reader->U64(&merges_));
    SD_RETURN_NOT_OK(reader->U64(&estimate_calls_));
    for (P2Quantile& est : ring_) {
      SD_RETURN_NOT_OK(est.RestoreFrom(reader));
    }
    return Status::OK();
  }

 private:
  SketchConfig config_;
  std::uint64_t width_;
  std::vector<P2Quantile> ring_;
  std::size_t oldest_ = 0;
  std::uint64_t fill_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace

const char* SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kDistinct: return "distinct";
    case SketchKind::kHeavyHitters: return "heavy_hitters";
    case SketchKind::kQuantile: return "quantile";
  }
  return "unknown";
}

Status SketchConfig::Validate() const {
  if (kind != SketchKind::kDistinct && kind != SketchKind::kHeavyHitters &&
      kind != SketchKind::kQuantile) {
    return Status::InvalidArgument("unknown sketch kind");
  }
  // The cap keeps the windowed heavy-hitter counters, which count at
  // most window + bucket width values, inside uint32.
  if (window < 1 || window > (std::uint64_t{1} << 31)) {
    return Status::InvalidArgument("sketch window must be in [1, 2^31]");
  }
  if (buckets < 1 || buckets > 64) {
    return Status::InvalidArgument("sketch buckets must be in [1, 64]");
  }
  if (hll_precision < 4 || hll_precision > 18) {
    return Status::InvalidArgument("hll_precision must be in [4, 18]");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("sketch epsilon must be in (0, 1)");
  }
  if (depth < 1 || depth > 16) {
    return Status::InvalidArgument("sketch depth must be in [1, 16]");
  }
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("sketch phi must be in (0, 1]");
  }
  if (candidates < 1 || candidates > 4096) {
    return Status::InvalidArgument(
        "sketch candidates must be in [1, 4096]");
  }
  if (!(q > 0.0) || q >= 1.0) {
    return Status::InvalidArgument("sketch quantile q must be in (0, 1)");
  }
  return Status::OK();
}

void SketchConfig::SaveTo(Writer* writer) const {
  writer->U8(static_cast<std::uint8_t>(kind));
  writer->U64(window);
  writer->U64(buckets);
  writer->U64(hll_precision);
  writer->F64(epsilon);
  writer->U64(depth);
  writer->F64(phi);
  writer->U64(candidates);
  writer->F64(q);
}

Status SketchConfig::RestoreFrom(Reader* reader) {
  std::uint8_t kind_byte = 0;
  SD_RETURN_NOT_OK(reader->U8(&kind_byte));
  if (kind_byte > static_cast<std::uint8_t>(SketchKind::kQuantile)) {
    return Status::InvalidArgument("unknown sketch kind byte");
  }
  kind = static_cast<SketchKind>(kind_byte);
  SD_RETURN_NOT_OK(reader->U64(&window));
  SD_RETURN_NOT_OK(reader->U64(&buckets));
  SD_RETURN_NOT_OK(reader->U64(&hll_precision));
  SD_RETURN_NOT_OK(reader->F64(&epsilon));
  SD_RETURN_NOT_OK(reader->U64(&depth));
  SD_RETURN_NOT_OK(reader->F64(&phi));
  SD_RETURN_NOT_OK(reader->U64(&candidates));
  SD_RETURN_NOT_OK(reader->F64(&q));
  return Status::OK();
}

std::unique_ptr<SketchMeasure> CreateSketchMeasure(
    const SketchConfig& config) {
  SD_CHECK(config.Validate().ok());
  switch (config.kind) {
    case SketchKind::kDistinct:
      return std::make_unique<DistinctMeasure>(config);
    case SketchKind::kHeavyHitters:
      return std::make_unique<HeavyHittersMeasure>(config);
    case SketchKind::kQuantile:
      return std::make_unique<QuantileMeasure>(config);
  }
  return nullptr;
}

}  // namespace stardust
