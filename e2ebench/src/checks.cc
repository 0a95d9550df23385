#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>
#include <utility>

#include "oracle.h"

namespace e2e {

namespace {

bool FindField(const std::string& json, const char* key, std::size_t* at) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *at = pos + needle.size();
  return true;
}

bool ParseU64(const std::string& json, const char* key, std::uint64_t* out) {
  std::size_t at = 0;
  if (!FindField(json, key, &at)) return false;
  char* end = nullptr;
  *out = std::strtoull(json.c_str() + at, &end, 10);
  return end != json.c_str() + at;
}

bool ParseF64(const std::string& json, const char* key, double* out) {
  std::size_t at = 0;
  if (!FindField(json, key, &at)) return false;
  char* end = nullptr;
  *out = std::strtod(json.c_str() + at, &end);
  return end != json.c_str() + at;
}

bool Close(double reported, double exact, const Tolerance& tol,
           double numeric) {
  const double slack = tol.relative * std::fabs(exact) + numeric;
  return std::fabs(reported - exact) <= slack;
}

std::string Describe(const AlertRec& a) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "query %llu %s stream %u/%u end_time %llu value %.9g",
                static_cast<unsigned long long>(a.query), a.kind.c_str(),
                a.stream, a.stream_b,
                static_cast<unsigned long long>(a.end_time), a.value);
  return buf;
}

void SortByEnd(std::vector<AlertRec>* alerts) {
  std::stable_sort(alerts->begin(), alerts->end(),
                   [](const AlertRec& x, const AlertRec& y) {
                     return x.end_time < y.end_time;
                   });
}

}  // namespace

bool ParseAlertJson(const std::string& json, AlertRec* out) {
  std::uint64_t stream = 0, stream_b = 0;
  std::size_t at = 0;
  if (!ParseU64(json, "seq", &out->seq)) out->seq = 0;
  if (!ParseU64(json, "query", &out->query) ||
      !ParseU64(json, "stream", &stream) ||
      !ParseU64(json, "stream_b", &stream_b) ||
      !ParseU64(json, "window", &out->window) ||
      !ParseU64(json, "end_time", &out->end_time) ||
      !ParseF64(json, "value", &out->value) ||
      !FindField(json, "kind", &at) || at >= json.size() || json[at] != '"') {
    return false;
  }
  const std::size_t close = json.find('"', at + 1);
  if (close == std::string::npos) return false;
  out->kind = json.substr(at + 1, close - at - 1);
  out->stream = static_cast<std::uint32_t>(stream);
  out->stream_b = static_cast<std::uint32_t>(stream_b);
  return true;
}

void Report::Fail(const std::string& message) {
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(message);
}

void CheckAggregate(const QueryDesc& query, const std::vector<double>& x,
                    std::vector<AlertRec> alerts, const Tolerance& tol,
                    Report* report) {
  SortByEnd(&alerts);
  const std::vector<oracle::Episode> episodes =
      oracle::CrossingEpisodes(x, query.window, query.threshold);
  const std::vector<double> sums = oracle::TrailingSums(x, query.window);
  std::vector<int> hits(episodes.size(), 0);
  for (const AlertRec& alert : alerts) {
    if (alert.end_time >= x.size() || alert.end_time + 1 < query.window) {
      report->Fail("aggregate alert outside the stream: " + Describe(alert));
      continue;
    }
    const auto it = std::upper_bound(
        episodes.begin(), episodes.end(), alert.end_time,
        [](std::uint64_t t, const oracle::Episode& e) { return t < e.start; });
    if (it == episodes.begin() || alert.end_time >= std::prev(it)->end) {
      report->Fail("aggregate alert outside every oracle episode: " +
                   Describe(alert));
      continue;
    }
    ++hits[static_cast<std::size_t>(std::prev(it) - episodes.begin())];
    if (!Close(alert.value, sums[alert.end_time], tol, 0.0)) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " (oracle %.17g)", sums[alert.end_time]);
      report->Fail("aggregate value differs: " + Describe(alert) + buf);
      continue;
    }
    report->Pass();
  }
  for (std::size_t k = 0; k < episodes.size(); ++k) {
    if (hits[k] == 1) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "aggregate query %llu: episode [%llu, %llu) alerted %d "
                  "times",
                  static_cast<unsigned long long>(query.id),
                  static_cast<unsigned long long>(episodes[k].start),
                  static_cast<unsigned long long>(episodes[k].end), hits[k]);
    report->Fail(buf);
  }
}

void CheckPattern(const QueryDesc& query, const std::vector<double>& x,
                  std::vector<AlertRec> alerts, const Tolerance& tol,
                  Report* report) {
  SortByEnd(&alerts);
  const std::size_t len = query.pattern.size();
  std::set<std::uint64_t> alerted;
  for (const AlertRec& alert : alerts) {
    if (alert.end_time >= x.size() || alert.end_time + 1 < len) {
      report->Fail("pattern alert outside the stream: " + Describe(alert));
      continue;
    }
    if (!alerted.insert(alert.end_time).second) {
      report->Fail("pattern position alerted twice: " + Describe(alert));
      continue;
    }
    const double d = oracle::PatternDistance(&x[alert.end_time + 1 - len],
                                             query.pattern, query.r_max);
    if (d > query.radius + tol.numeric) {
      report->Fail("pattern alert is not a match: " + Describe(alert));
      continue;
    }
    if (!Close(alert.value, d, tol, tol.numeric)) {
      report->Fail("pattern distance differs: " + Describe(alert));
      continue;
    }
    report->Pass();
  }
  for (std::size_t t = len - 1; t < x.size(); ++t) {
    const double d =
        oracle::PatternDistance(&x[t + 1 - len], query.pattern, query.r_max);
    if (d <= query.radius - tol.numeric && alerted.count(t) == 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "pattern query %llu: match ending at %zu (distance %.6g) "
                    "never alerted",
                    static_cast<unsigned long long>(query.id), t, d);
      report->Fail(buf);
    }
  }
}

void CheckSketch(const QueryDesc& query, const std::vector<double>& x,
                 const std::vector<AlertRec>& alerts, const Tolerance& tol,
                 Report* report) {
  const std::uint64_t width =
      std::max<std::uint64_t>(1, (query.window + query.buckets - 1) /
                                     query.buckets);
  for (const AlertRec& alert : alerts) {
    const std::uint64_t n = alert.end_time + 1;
    if (n > x.size() || n < query.window) {
      report->Fail("sketch alert outside the stream: " + Describe(alert));
      continue;
    }
    if (query.assess.Contains(alert.value)) {
      report->Fail("sketch estimate inside its assess range: " +
                   Describe(alert));
      continue;
    }
    const std::uint64_t cover =
        oracle::SketchCoverage(query.window, query.buckets, n);
    const double* w = &x[n - cover];
    bool ok = true;
    char buf[128] = "";
    switch (query.sketch) {
      case SketchKind::kDistinct: {
        // HyperLogLog: standard error 1.04 / sqrt(m); five of them.
        const double exact =
            static_cast<double>(oracle::DistinctCount(w, cover));
        const double bound =
            5.0 * 1.04 / std::sqrt(std::ldexp(1.0, static_cast<int>(
                                                       query.precision))) *
                exact +
            1.0;
        ok = std::fabs(alert.value - exact) <=
             bound + tol.relative * exact;
        std::snprintf(buf, sizeof buf, " (exact distinct %.0f)", exact);
        break;
      }
      case SketchKind::kHeavyHitters: {
        // CountMin never undercounts a frequency and overcounts by at
        // most epsilon * covered values, so the count of values it calls
        // heavy lies between the exact counts at phi and phi - epsilon.
        const std::size_t lo = oracle::CountAtLeast(
            w, cover, query.phi * static_cast<double>(cover));
        const std::size_t hi = oracle::CountAtLeast(
            w, cover, (query.phi - query.epsilon) * static_cast<double>(cover));
        ok = alert.value >= static_cast<double>(lo) &&
             alert.value <= static_cast<double>(hi);
        std::snprintf(buf, sizeof buf, " (exact heavy %zu..%zu)", lo, hi);
        break;
      }
      case SketchKind::kQuantile: {
        // P² markers never leave the observed range; the oldest
        // estimator covers fewer than window + bucket width values.
        const std::uint64_t span = std::min<std::uint64_t>(n, query.window + width - 1);
        const auto [lo, hi] = oracle::MinMax(&x[n - span], span);
        ok = alert.value >= lo - tol.relative * std::fabs(lo) &&
             alert.value <= hi + tol.relative * std::fabs(hi);
        std::snprintf(buf, sizeof buf, " (window range %.6g..%.6g)", lo, hi);
        break;
      }
    }
    if (!ok) {
      report->Fail("sketch estimate outside its bound: " + Describe(alert) +
                   buf);
      continue;
    }
    report->Pass();
  }
}

void CheckCorrelationAlert(const QueryDesc& query, const double* a,
                           const double* b, const AlertRec& alert,
                           const Tolerance& tol, Report* report) {
  if (alert.stream >= alert.stream_b) {
    report->Fail("correlation pair not ordered: " + Describe(alert));
    return;
  }
  if ((alert.end_time + 1) % query.period != 0) {
    report->Fail("correlation round time off the feature grid: " +
                 Describe(alert));
    return;
  }
  const double d = oracle::ZNormDistance(a, b, query.window);
  if (d > query.radius + tol.numeric) {
    report->Fail("correlation alert beyond the radius: " + Describe(alert));
    return;
  }
  if (!Close(alert.value, d, tol, tol.numeric)) {
    report->Fail("correlation distance differs: " + Describe(alert));
    return;
  }
  report->Pass();
}

void CheckCorrelationFinal(const QueryDesc& query,
                           const std::vector<std::vector<double>>& windows,
                           const std::vector<AlertRec>& alerts,
                           const Tolerance& tol, Report* report) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> announced;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint64_t>>
      rounds;
  for (const AlertRec& alert : alerts) {
    announced.emplace(alert.stream, alert.stream_b);
    // A pair enters the correlated set at most once per round. A restored
    // engine starts with an empty pair set (see README.md), so the check
    // holds within one engine lifetime.
    if (!rounds.emplace(alert.life, alert.stream, alert.stream_b,
                        alert.end_time)
             .second) {
      report->Fail("correlation pair alerted twice in one round: " +
                   Describe(alert));
    }
  }
  for (std::size_t a = 0; a < windows.size(); ++a) {
    if (windows[a].size() != query.window) continue;
    for (std::size_t b = a + 1; b < windows.size(); ++b) {
      if (windows[b].size() != query.window) continue;
      const double d = oracle::ZNormDistance(windows[a].data(),
                                             windows[b].data(), query.window);
      if (d > query.radius - tol.numeric) continue;
      if (announced.count({static_cast<std::uint32_t>(a),
                           static_cast<std::uint32_t>(b)}) != 0) {
        report->Pass();
        continue;
      }
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "correlation query %llu: pair %zu/%zu (distance %.6g) "
                    "correlated at the final round, never announced",
                    static_cast<unsigned long long>(query.id), a, b, d);
      report->Fail(buf);
    }
  }
}

void CheckSequence(const std::vector<AlertRec>& alerts, std::uint64_t first,
                   Report* report) {
  std::uint64_t expect = first;
  for (const AlertRec& alert : alerts) {
    if (alert.seq != expect) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "alert seq %llu where %llu was due",
                    static_cast<unsigned long long>(alert.seq),
                    static_cast<unsigned long long>(expect));
      report->Fail(buf);
      return;
    }
    ++expect;
  }
  report->Pass();
}

}  // namespace e2e
