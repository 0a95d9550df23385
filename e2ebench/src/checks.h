// Output checks of the end-to-end benchmark, built on the oracle.
//
// The checks see alerts as plain records (AlertRec) and queries as the
// benchmark's own descriptions (QueryDesc), so they link nothing from
// src/ and the test in tests/ can feed them hand-made alerts. Each check
// appends a message to the Report for every violation it finds.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace e2e {

/// One alert as delivered (the AlertToJson schema, docs/QUERIES.md).
struct AlertRec {
  std::uint64_t seq = 0;
  std::uint64_t query = 0;
  std::string kind;
  std::uint32_t stream = 0;
  std::uint32_t stream_b = 0;
  std::uint64_t window = 0;
  std::uint64_t end_time = 0;
  double value = 0.0;
  /// Engine lifetime the alert came from: 0 before a restore, 1 after.
  std::uint32_t life = 0;
};

/// Parses one alert JSON line; false when a field is missing.
bool ParseAlertJson(const std::string& json, AlertRec* out);

/// A conformance range; a query alarms while its measure is outside.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  bool Contains(double v) const {
    if (lo_inclusive ? v < lo : v <= lo) return false;
    if (hi_inclusive ? v > hi : v >= hi) return false;
    return true;
  }
};

enum class SketchKind { kDistinct, kHeavyHitters, kQuantile };

/// What the benchmark registered, in its own terms.
struct QueryDesc {
  enum class Kind { kAggregate, kPattern, kCorrelation, kSketch };
  Kind kind = Kind::kAggregate;
  std::uint64_t id = 0;
  /// Aggregate / sketch window; correlation level window.
  std::size_t window = 0;
  /// Aggregate: alarm while the window sum is >= threshold.
  double threshold = 0.0;
  /// Pattern: the query sequence and the core's r_max.
  std::vector<double> pattern;
  double r_max = 1.0;
  /// Pattern / correlation radius.
  double radius = 0.0;
  /// Correlation: the core's update period (round times t satisfy
  /// (t + 1) % period == 0).
  std::size_t period = 1;
  /// Sketch.
  SketchKind sketch = SketchKind::kDistinct;
  std::uint64_t buckets = 4;
  std::uint64_t precision = 12;
  double epsilon = 0.01;
  double phi = 0.05;
  Range assess;
};

/// Relative tolerance on reported values: alerts read off the wire carry
/// six significant digits; alerts fetched in process carry all of them.
struct Tolerance {
  double relative = 0.0;
  /// Slack for values the program computes in another summation order
  /// than the oracle (pattern and correlation distances).
  double numeric = 1e-9;
};

class Report {
 public:
  void Fail(const std::string& message);
  void Pass() { ++checked_; }
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t checked() const { return checked_; }
  /// The first few failure messages.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failures_ = 0;
  std::uint64_t checked_ = 0;
  std::vector<std::string> messages_;
};

/// Aggregate query on one stream: the alerted episodes equal the
/// oracle's crossing episodes over x (one alert inside each, none
/// elsewhere), and each value equals the window sum at its end_time.
void CheckAggregate(const QueryDesc& query, const std::vector<double>& x,
                    std::vector<AlertRec> alerts, const Tolerance& tol,
                    Report* report);

/// Pattern query on one stream: every alert is a true match with the
/// oracle's distance, and every oracle match-end position is alerted
/// exactly once.
void CheckPattern(const QueryDesc& query, const std::vector<double>& x,
                  std::vector<AlertRec> alerts, const Tolerance& tol,
                  Report* report);

/// Sketch query on one stream: each estimate lies outside the assess
/// range and within the measure's bound of the exact statistic over the
/// covered window.
void CheckSketch(const QueryDesc& query, const std::vector<double>& x,
                 const std::vector<AlertRec>& alerts, const Tolerance& tol,
                 Report* report);

/// Correlation alert: the pair's oracle distance at end_time is within
/// the radius and equals the reported value. `a` and `b` are the two
/// streams' windows ending at end_time.
void CheckCorrelationAlert(const QueryDesc& query, const double* a,
                           const double* b, const AlertRec& alert,
                           const Tolerance& tol, Report* report);

/// Over all alerts of one correlation query: no pair is announced twice
/// in one round of one engine lifetime, and after the final synchronous round every pair whose
/// oracle distance there is within the radius was announced. `windows`
/// holds each stream's window ending at the final round time (empty = no
/// data).
void CheckCorrelationFinal(const QueryDesc& query,
                           const std::vector<std::vector<double>>& windows,
                           const std::vector<AlertRec>& alerts,
                           const Tolerance& tol, Report* report);

/// Sequence numbers are exactly first, first+1, ... in delivery order.
void CheckSequence(const std::vector<AlertRec>& alerts, std::uint64_t first,
                   Report* report);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
