#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "oracle.h"

namespace e2e {

ProducerInput::ProducerInput(const Workload& wl, std::uint64_t seed,
                             std::size_t p)
    : streams(OwnedStreams(wl, p)) {
  gens.reserve(streams.size());
  for (std::uint32_t s : streams) gens.emplace_back(wl.signal, seed, s);
}

void ProducerInput::BuildFrame(const Workload& wl, std::size_t chunk,
                               stardust::net::BatchMessage* out) {
  const std::size_t begin = chunk * wl.streams_per_frame;
  const std::size_t end =
      std::min(streams.size(), begin + wl.streams_per_frame);
  out->runs.resize((end - begin) * wl.cycles);
  std::size_t r = 0;
  for (std::size_t c = 0; c < wl.cycles; ++c) {
    for (std::size_t i = begin; i < end; ++i, ++r) {
      stardust::net::StreamRun& run = out->runs[r];
      run.stream = streams[i];
      run.values.resize(wl.run_len);
      for (double& v : run.values) v = gens[i].Next();
    }
  }
}

void WriteLine(int fd, const std::string& line) {
  const std::string data = line + "\n";
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

bool ReadLine(int fd, std::string* line) {
  line->clear();
  char c;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string KernelBackend(const std::string& metrics_json) {
  const std::string key = "\"kernels\":{\"backend\":\"";
  const std::size_t at = metrics_json.find(key);
  if (at == std::string::npos) return "unknown";
  const std::size_t begin = at + key.size();
  return metrics_json.substr(begin, metrics_json.find('"', begin) - begin);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string RunOutput::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

namespace {

const char* KindName(QueryDesc::Kind kind) {
  switch (kind) {
    case QueryDesc::Kind::kAggregate: return "aggregate";
    case QueryDesc::Kind::kPattern: return "pattern";
    case QueryDesc::Kind::kCorrelation: return "correlation";
    case QueryDesc::Kind::kSketch: return "sketch";
  }
  return "?";
}

}  // namespace

void CheckAlerts(const Workload& wl, std::uint64_t seed, std::uint64_t n,
                 const std::vector<AlertRec>& alerts, const Tolerance& tol,
                 Report* report, std::vector<std::int64_t>* trigger) {
  trigger->assign(alerts.size(), -1);
  std::unordered_map<std::uint64_t, const QueryDesc*> by_id;
  for (const QueryDesc& q : wl.queries) by_id[q.id] = &q;

  // Alerts per (query, stream); correlation alerts per query, plus the
  // windows their checks need, keyed by (stream, end time).
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::size_t>>
      per_stream;
  std::map<std::uint64_t, std::vector<std::size_t>> per_corr;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<double>>
      windows;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const AlertRec& a = alerts[i];
    const auto it = by_id.find(a.query);
    if (it == by_id.end() || a.kind != KindName(it->second->kind) ||
        a.stream >= wl.streams ||
        (a.kind == "correlation" && a.stream_b >= wl.streams)) {
      report->Fail("alert does not match a registered query: query " +
                   std::to_string(a.query) + " kind " + a.kind);
      continue;
    }
    if (it->second->kind == QueryDesc::Kind::kCorrelation) {
      per_corr[a.query].push_back(i);
      if (a.end_time < n && a.end_time + 1 >= it->second->window) {
        windows[{a.stream, a.end_time}];
        windows[{a.stream_b, a.end_time}];
      }
    } else {
      per_stream[{a.query, a.stream}].push_back(i);
    }
  }

  // Final-round time of the correlation queries: the newest feature time
  // every stream has reached (all streams end with n values).
  const QueryDesc* corr = nullptr;
  std::uint64_t t_final = 0;
  for (const QueryDesc& q : wl.queries) {
    if (q.kind != QueryDesc::Kind::kCorrelation) continue;
    corr = &q;
    t_final = n / q.period * q.period;
    if (t_final < q.window) corr = nullptr;  // no full window yet
    else t_final -= 1;
  }
  std::vector<std::vector<double>> final_windows(wl.streams);

  for (std::uint32_t s = 0; s < wl.streams; ++s) {
    const std::vector<double> x = StreamValues(wl.signal, seed, s, n);
    for (const QueryDesc& q : wl.queries) {
      if (q.kind == QueryDesc::Kind::kCorrelation) continue;
      std::vector<AlertRec> mine;
      const auto it = per_stream.find({q.id, s});
      if (it != per_stream.end()) {
        for (std::size_t i : it->second) mine.push_back(alerts[i]);
      }
      switch (q.kind) {
        case QueryDesc::Kind::kAggregate: {
          CheckAggregate(q, x, mine, tol, report);
          if (it == per_stream.end()) break;
          const std::vector<oracle::Episode> episodes =
              oracle::CrossingEpisodes(x, q.window, q.threshold);
          for (std::size_t i : it->second) {
            for (const oracle::Episode& e : episodes) {
              if (alerts[i].end_time >= e.start && alerts[i].end_time < e.end) {
                (*trigger)[i] = static_cast<std::int64_t>(e.start);
              }
            }
          }
          break;
        }
        case QueryDesc::Kind::kPattern:
          CheckPattern(q, x, mine, tol, report);
          if (it == per_stream.end()) break;
          for (std::size_t i : it->second) {
            (*trigger)[i] = static_cast<std::int64_t>(alerts[i].end_time);
          }
          break;
        case QueryDesc::Kind::kSketch:
          CheckSketch(q, x, mine, tol, report);
          break;
        case QueryDesc::Kind::kCorrelation:
          break;
      }
    }
    if (corr == nullptr) continue;
    for (auto it = windows.lower_bound({s, 0});
         it != windows.end() && it->first.first == s; ++it) {
      const std::uint64_t t = it->first.second;
      it->second.assign(x.begin() + static_cast<std::ptrdiff_t>(t + 1 - corr->window),
                        x.begin() + static_cast<std::ptrdiff_t>(t + 1));
    }
    final_windows[s].assign(
        x.begin() + static_cast<std::ptrdiff_t>(t_final + 1 - corr->window),
        x.begin() + static_cast<std::ptrdiff_t>(t_final + 1));
  }

  for (const auto& [query, indices] : per_corr) {
    const QueryDesc& q = *by_id[query];
    std::vector<AlertRec> mine;
    for (std::size_t i : indices) {
      const AlertRec& a = alerts[i];
      mine.push_back(a);
      const auto wa = windows.find({a.stream, a.end_time});
      const auto wb = windows.find({a.stream_b, a.end_time});
      if (wa == windows.end() || wb == windows.end() ||
          wa->second.size() != q.window || wb->second.size() != q.window) {
        report->Fail("correlation alert outside the streams: query " +
                     std::to_string(a.query) + " end_time " +
                     std::to_string(a.end_time));
        continue;
      }
      CheckCorrelationAlert(q, wa->second.data(), wb->second.data(), a, tol,
                            report);
    }
  }
  if (corr != nullptr) {
    std::vector<AlertRec> mine;
    const auto it = per_corr.find(corr->id);
    if (it != per_corr.end()) {
      for (std::size_t i : it->second) mine.push_back(alerts[i]);
    }
    CheckCorrelationFinal(*corr, final_windows, mine, tol, report);
  }
}

}  // namespace e2e
