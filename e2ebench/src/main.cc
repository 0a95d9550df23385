// e2ebench — end-to-end benchmark of the Stardust server over loopback.
//
//   e2ebench --workload <fleet-aggregate|unified-mixed|paced-detect>
//            --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//            [--closed-loop 1]
//
// --trace 0: forks the engine-hosting server process (server.cc), sends
// the seeded input over loopback SDNF with net::ProducerClient (two
// producer connections, each owning half the streams), reads the alerts
// back with one net::SubscriberClient, checkpoints, restores and replays
// a tail, then checks every alert against the oracle and the conservation
// totals. --trace 1: the traced in-process run (trace.cc). Either way the
// last stdout line is the result JSON; earlier lines are information.
// --closed-loop 1 sends paced-detect's input closed loop instead of on its
// schedule: its ingest_appends_per_s is then the saturation throughput
// that the paced rate is set against (README.md).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"

namespace e2e {
namespace {

using namespace stardust;

/// Host fingerprint printed with every run.
std::string Fingerprint(const std::string& backend) {
  char host[256] = "";
  gethostname(host, sizeof host - 1);
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return std::string("{\"fingerprint\": {\"host\": \"") + host +
         "\", \"cpu\": \"" + cpu + "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" + E2E_BUILD_TYPE + "\", \"kernels\": \"" +
         backend + "\"}}";
}

/// Alert reader over one subscriber connection.
class Subscriber {
 public:
  struct Received {
    std::int64_t read_ns;
    std::string json;
  };

  Subscriber() = default;
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;
  /// Early exits (a failed run) stop the reader without waiting for
  /// alerts.
  ~Subscriber() {
    if (thread_.joinable()) (void)FinishAt(0);
  }

  void Start(std::uint16_t port, std::uint64_t resume_after) {
    last_seq_ = resume_after;
    thread_ = std::thread([this, port, resume_after] { Loop(port, resume_after); });
  }

  /// Waits until every alert up to `seq` was read, then disconnects.
  bool FinishAt(std::uint64_t seq) {
    target_.store(seq, std::memory_order_release);
    finish_.store(true, std::memory_order_release);
    thread_.join();
    return ok_ && last_seq_ >= seq;
  }

  std::vector<Received>& received() { return received_; }
  std::uint64_t last_seq() const { return last_seq_; }

 private:
  void Loop(std::uint16_t port, std::uint64_t resume_after) {
    Result<std::unique_ptr<net::SubscriberClient>> client =
        net::SubscriberClient::Connect("127.0.0.1", port, "e2ebench",
                                       resume_after);
    if (!client.ok()) {
      ok_ = false;
      return;
    }
    const std::int64_t give_up_after = 60'000'000'000;
    std::int64_t finish_seen = 0;
    for (;;) {
      Result<net::AlertFrameMessage> next = client.value()->Next(20);
      if (next.ok()) {
        received_.push_back({NowNs(), std::move(next.value().json)});
        last_seq_ = next.value().seq;
        if (received_.size() % 256 == 0) (void)client.value()->Ack(last_seq_);
        continue;
      }
      if (next.status().code() != StatusCode::kNotFound) {
        ok_ = false;
        break;
      }
      if (!finish_.load(std::memory_order_acquire)) continue;
      if (last_seq_ >= target_.load(std::memory_order_acquire)) break;
      if (finish_seen == 0) finish_seen = NowNs();
      if (NowNs() - finish_seen > give_up_after) {
        ok_ = false;
        break;
      }
    }
    (void)client.value()->Ack(last_seq_);
  }

  std::thread thread_;
  std::atomic<bool> finish_{false};
  std::atomic<std::uint64_t> target_{0};
  bool ok_ = true;
  std::uint64_t last_seq_ = 0;
  std::vector<Received> received_;
};

/// What one producer did in one phase.
struct ProducerStats {
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  std::uint64_t accepted = 0;
  std::int64_t first_ack_ns = 0;
  /// Paced phases: the due time of every frame.
  std::vector<std::int64_t> due_ns;
  /// Paced phases: how late each send started, in microseconds.
  std::vector<double> late_us;
  bool broken = false;
};

struct PhaseResult {
  std::vector<ProducerStats> producers;
  /// Closed loop: epochs completed.
  std::uint64_t epochs = 0;
  /// Time spent sending (summed over the segments of a main phase).
  std::int64_t send_ns = 0;
  bool ok = true;

  /// Adds a later segment of the same phase.
  void Append(const PhaseResult& seg) {
    producers.resize(seg.producers.size());
    for (std::size_t p = 0; p < seg.producers.size(); ++p) {
      ProducerStats& to = producers[p];
      const ProducerStats& from = seg.producers[p];
      to.frames += from.frames;
      to.failed += from.failed;
      to.accepted += from.accepted;
      if (to.first_ack_ns == 0) to.first_ack_ns = from.first_ack_ns;
      to.due_ns.insert(to.due_ns.end(), from.due_ns.begin(), from.due_ns.end());
      to.late_us.insert(to.late_us.end(), from.late_us.begin(),
                        from.late_us.end());
      to.broken = to.broken || from.broken;
    }
    epochs += seg.epochs;
    send_ns += seg.send_ns;
    ok = ok && seg.ok;
  }
};

/// Runs one send phase: closed loop in lock-stepped epochs until
/// `seconds` elapsed (or `max_epochs` epochs), or paced frames at the
/// workload's period for `seconds`. `on_epoch` runs on the calling thread
/// after each completed epoch, with the phase's epoch count (mid-run
/// checkpoints).
PhaseResult RunPhase(const Workload& wl, std::uint64_t seed,
                     std::uint16_t port,
                     std::vector<ProducerInput>* inputs, double seconds,
                     std::uint64_t max_epochs, bool paced,
                     const std::function<void(std::uint64_t)>& on_epoch) {
  PhaseResult result;
  result.producers.resize(wl.producers);
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t epochs = 0;
  std::int64_t start_ns = 0;
  const std::int64_t limit_ns = static_cast<std::int64_t>(seconds * 1e9);

  auto on_start = [&]() noexcept { start_ns = NowNs(); };
  std::barrier start_barrier(static_cast<std::ptrdiff_t>(wl.producers),
                             on_start);
  auto on_epoch_end = [&]() noexcept {
    std::lock_guard<std::mutex> lock(mu);
    ++epochs;
    if ((max_epochs != 0 && epochs >= max_epochs) ||
        (limit_ns != 0 && NowNs() - start_ns >= limit_ns)) {
      stop.store(true);
    }
    cv.notify_all();
  };
  std::barrier epoch_barrier(static_cast<std::ptrdiff_t>(wl.producers),
                             on_epoch_end);

  const std::size_t frames_per_round = wl.FramesPerRound();
  const std::int64_t period_ns =
      static_cast<std::int64_t>(wl.frame_period_us * 1e3);
  const std::uint64_t paced_frames =
      paced ? static_cast<std::uint64_t>(seconds * 1e9 / period_ns) : 0;

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < wl.producers; ++p) {
    threads.emplace_back([&, p] {
      ProducerStats& stats = result.producers[p];
      Result<std::unique_ptr<net::ProducerClient>> client =
          net::ProducerClient::Connect("127.0.0.1", port);
      start_barrier.arrive_and_wait();
      net::BatchMessage msg;
      auto send = [&](std::size_t chunk, std::int64_t due) {
        (*inputs)[p].BuildFrame(wl, chunk, &msg);
        const std::size_t values = msg.total_values();
        const std::int64_t sent = NowNs();
        if (due != 0) {
          stats.due_ns.push_back(due);
          stats.late_us.push_back(static_cast<double>(sent - due) * 1e-3);
        }
        ++stats.frames;
        if (stats.broken) {
          ++stats.failed;
          return;
        }
        Result<net::BatchAckMessage> ack = client.value()->Send(msg);
        if (!ack.ok()) {
          stats.broken = true;
          ++stats.failed;
          return;
        }
        if (stats.first_ack_ns == 0) stats.first_ack_ns = NowNs();
        stats.accepted += ack.value().accepted;
        if (ack.value().accepted != values || ack.value().dropped != 0) {
          ++stats.failed;
        }
      };
      if (!client.ok()) stats.broken = true;
      if (paced) {
        // Each frame is due at a seeded uniform offset inside its own
        // period: the mean rate is fixed, and the arrivals do not lock
        // onto the phase of the engine's idle back-off.
        Rng jitter(seed * 31 + p);
        for (std::uint64_t f = 0; f < paced_frames; ++f) {
          const std::int64_t due =
              start_ns + 1'000'000 + static_cast<std::int64_t>(f) * period_ns +
              static_cast<std::int64_t>(jitter.Uniform() *
                                        static_cast<double>(period_ns));
          // Sleep to just before the due time, then spin: the schedule
          // stays exact to about a microsecond instead of a timer slack.
          const std::int64_t wake = due - 300'000;
          if (NowNs() < wake) {
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(wake)));
          }
          while (NowNs() < due) {
          }
          send(f % frames_per_round, due);
        }
        return;
      }
      for (;;) {
        for (std::size_t r = 0; r < wl.rounds_per_epoch; ++r) {
          for (std::size_t c = 0; c < frames_per_round; ++c) send(c, 0);
        }
        epoch_barrier.arrive_and_wait();
        if (stop.load()) break;
      }
    });
  }
  if (!paced && on_epoch) {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return epochs > seen || stop.load(); });
      if (stop.load()) break;
      seen = epochs;
      lock.unlock();
      on_epoch(seen);
    }
  }
  for (std::thread& t : threads) t.join();
  result.send_ns = NowNs() - start_ns;
  result.epochs = epochs;
  for (const ProducerStats& s : result.producers) {
    if (s.broken) result.ok = false;
  }
  return result;
}

/// Value of key `key` in a "STATS k=v ..." line (all ones when absent).
std::uint64_t StatValue(const std::string& stats, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = stats.find(needle);
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(stats.c_str() + at + needle.size(), nullptr, 10);
}

int Fail(const char* what) {
  std::fprintf(stderr, "e2ebench: %s\n", what);
  return 1;
}

int RunEndToEnd(Workload wl, std::uint64_t seed, double seconds,
                const std::string& work_dir, std::int64_t process_start,
                RunOutput* out) {
  int to_server[2], from_server[2];
  if (pipe(to_server) != 0 || pipe(from_server) != 0) return Fail("pipe");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return Fail("fork");
  if (pid == 0) {
    close(to_server[1]);
    close(from_server[0]);
    const int rc = RunServer(wl, to_server[0], from_server[1]);
    std::fflush(stderr);
    _exit(rc);
  }
  close(to_server[0]);
  close(from_server[1]);
  const int ctl_out = to_server[1];
  const int ctl_in = from_server[0];
  auto finish_child = [&](int code) {
    close(ctl_out);
    close(ctl_in);
    int status = 0;
    waitpid(pid, &status, 0);
    return code;
  };

  std::string line;
  if (!ReadLine(ctl_in, &line) || line.rfind("READY ", 0) != 0) {
    return finish_child(Fail("server did not start"));
  }
  const std::int64_t ready_ns = NowNs();
  std::istringstream ready(line.substr(6));
  unsigned port = 0;
  ready >> port;
  for (QueryDesc& q : wl.queries) ready >> q.id;

  std::vector<ProducerInput> inputs;
  for (std::size_t p = 0; p < wl.producers; ++p) inputs.emplace_back(wl, seed, p);

  Subscriber sub;
  sub.Start(static_cast<std::uint16_t>(port), 0);

  // Main phase in segments, with live checkpoints at fixed epochs and
  // one quiesced checkpoint + restore sample between segments. The
  // sample restores run here, in the generator process, so that the
  // engine-hosting process's peak resident set stays that of the
  // serving engine.
  std::vector<double> live_checkpoint_s, checkpoint_s, restore_s;
  const std::string live_dir = work_dir + "/live";
  std::uint64_t epochs_before = 0;
  auto on_epoch = [&](std::uint64_t seg_epoch) {
    const std::uint64_t epoch = epochs_before + seg_epoch;
    if (wl.checkpoint_every_epochs == 0 ||
        epoch % wl.checkpoint_every_epochs != 0) {
      return;
    }
    WriteLine(ctl_out, "CKPT " + live_dir);
    std::string reply;
    if (ReadLine(ctl_in, &reply) && reply.rfind("OK ", 0) == 0) {
      live_checkpoint_s.push_back(std::strtod(reply.c_str() + 3, nullptr));
    } else {
      live_checkpoint_s.push_back(-1.0);
    }
  };
  PhaseResult main_phase;
  for (std::size_t k = 0; k < wl.segments; ++k) {
    if (k > 0) {
      // Sample directories are deleted only when the run ends: on a
      // filesystem mounted with online discard, deleting one would slow
      // the next sample's fsyncs.
      const std::string dir = work_dir + "/sample-" + std::to_string(k);
      WriteLine(ctl_out, "SAMPLE " + dir);
      if (!ReadLine(ctl_in, &line) || line.rfind("SAMPLED ", 0) != 0) {
        return finish_child(Fail(("sample failed: " + line).c_str()));
      }
      checkpoint_s.push_back(std::strtod(line.c_str() + 8, nullptr));
      const std::int64_t start = NowNs();
      Result<std::unique_ptr<IngestEngine>> sample = CreateEngine(wl, dir);
      restore_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      if (!sample.ok() || !sample.value()->Stop().ok()) {
        return finish_child(Fail("sample restore failed"));
      }
    }
    main_phase.Append(RunPhase(wl, seed, static_cast<std::uint16_t>(port),
                               &inputs, seconds / static_cast<double>(wl.segments),
                               0, wl.paced(), on_epoch));
    epochs_before = main_phase.epochs;
  }

  std::string stats1, json1;
  WriteLine(ctl_out, "DRAIN");
  if (!ReadLine(ctl_in, &stats1) || stats1.rfind("STATS", 0) != 0 ||
      !ReadLine(ctl_in, &json1)) {
    return finish_child(Fail("drain failed"));
  }
  const std::uint64_t next_seq1 = StatValue(stats1, "next_seq");
  const bool sub_ok = sub.FinishAt(next_seq1 - 1);

  WriteLine(ctl_out, "RESTORE " + work_dir + "/final");
  if (!ReadLine(ctl_in, &line) || line.rfind("RESTORED ", 0) != 0) {
    return finish_child(Fail(("restore failed: " + line).c_str()));
  }
  std::istringstream restored(line.substr(9));
  unsigned port2 = 0;
  double final_checkpoint_s = 0, final_restore_s = 0;
  std::uint64_t checkpoint_bytes = 0;
  restored >> port2 >> final_checkpoint_s >> checkpoint_bytes >>
      final_restore_s;
  checkpoint_s.push_back(final_checkpoint_s);
  restore_s.push_back(final_restore_s);

  Subscriber sub2;
  sub2.Start(static_cast<std::uint16_t>(port2), sub.last_seq());
  PhaseResult tail = RunPhase(wl, seed, static_cast<std::uint16_t>(port2), &inputs,
                              0.0, wl.tail_epochs, false, nullptr);
  std::string stats2, json2;
  WriteLine(ctl_out, "DRAIN");
  if (!ReadLine(ctl_in, &stats2) || stats2.rfind("STATS", 0) != 0 ||
      !ReadLine(ctl_in, &json2)) {
    return finish_child(Fail("drain after restore failed"));
  }
  const std::uint64_t next_seq2 = StatValue(stats2, "next_seq");
  const bool sub2_ok = sub2.FinishAt(next_seq2 - 1);
  WriteLine(ctl_out, "QUIT");
  ReadLine(ctl_in, &line);
  finish_child(0);
  // Peak resident set while serving the main phase (before the timed
  // checkpoint and restore samples).
  const double rss_kb = static_cast<double>(StatValue(stats1, "peak_rss_kb"));
  if (!main_phase.ok || !tail.ok) return Fail("a producer connection broke");

  // --- Checks ---------------------------------------------------------
  Report report;
  std::uint64_t attempted = 0, failed = 0, accepted_main = 0, accepted = 0;
  std::vector<std::uint64_t> frames_per_producer;
  for (std::size_t p = 0; p < wl.producers; ++p) {
    const ProducerStats& m = main_phase.producers[p];
    const ProducerStats& t = tail.producers[p];
    attempted += m.frames + t.frames;
    failed += m.failed + t.failed;
    accepted_main += m.accepted;
    accepted += m.accepted + t.accepted;
    frames_per_producer.push_back(m.frames + t.frames);
  }
  const std::uint64_t frames_main = main_phase.producers[0].frames;
  const std::uint64_t n_main =
      frames_main / wl.FramesPerRound() * wl.ValuesPerRound();
  const std::uint64_t n = frames_per_producer[0] / wl.FramesPerRound() *
                          wl.ValuesPerRound();
  for (std::uint64_t f : frames_per_producer) {
    if (f != frames_per_producer[0] || f % wl.FramesPerRound() != 0) {
      report.Fail("producers sent unequal or partial rounds");
    }
  }

  // Conservation by independent paths.
  // The restored engine's applied-value counter starts from zero (it is
  // a process counter); the per-stream append counts continue.
  const std::uint64_t appended =
      StatValue(stats1, "appended") + StatValue(stats2, "appended");
  if (accepted != appended || appended != StatValue(stats2, "stream_sum") ||
      appended != n * wl.streams) {
    report.Fail("values accepted in acks (" + std::to_string(accepted) +
                "), engine appended (" + std::to_string(appended) +
                ") and per-stream counts (" +
                std::to_string(StatValue(stats2, "stream_sum")) +
                ") disagree");
  }
  for (const std::string* s : {&stats1, &stats2}) {
    if (StatValue(*s, "dropped") != 0 || StatValue(*s, "append_errors") != 0 ||
        StatValue(*s, "bus_dropped") != 0 || StatValue(*s, "hub_dropped") != 0) {
      report.Fail("engine, bus or hub dropped data: " + *s);
    }
  }
  std::vector<AlertRec> alerts;
  std::vector<std::int64_t> read_ns;
  for (Subscriber* s : {&sub, &sub2}) {
    for (const Subscriber::Received& r : s->received()) {
      AlertRec a;
      if (!ParseAlertJson(r.json, &a)) {
        report.Fail("unparseable alert: " + r.json);
        continue;
      }
      a.life = s == &sub ? 0 : 1;
      alerts.push_back(a);
      read_ns.push_back(r.read_ns);
    }
  }
  const std::uint64_t published =
      StatValue(stats1, "published") + StatValue(stats2, "published");
  if (!sub_ok || !sub2_ok || alerts.size() != next_seq2 - 1 ||
      published != next_seq2 - 1) {
    report.Fail("alerts read (" + std::to_string(alerts.size()) +
                "), hub stamped (" + std::to_string(next_seq2 - 1) +
                ") and bus published (" + std::to_string(published) +
                ") disagree");
  }
  CheckSequence(alerts, 1, &report);

  std::vector<std::int64_t> trigger;
  Tolerance wire;
  wire.relative = 1e-5;  // alert values travel with six significant digits
  CheckAlerts(wl, seed, n, alerts, wire, &report, &trigger);

  // Detection latency (paced phases): from the due time of the frame that
  // carried the triggering tuple to the subscriber's read, main phase
  // only. Printed in the run line, not as a result metric: on the
  // reference host it is set by the hypervisor's stalls (README.md).
  std::vector<double> latency_us;
  const std::size_t vpr = wl.ValuesPerRound();
  for (std::size_t i = 0; i < alerts.size() && wl.paced(); ++i) {
    if (trigger[i] < 0 || static_cast<std::uint64_t>(trigger[i]) >= n_main ||
        alerts[i].seq >= next_seq1) {
      continue;
    }
    const std::uint32_t s = alerts[i].stream;
    const std::size_t p = s % wl.producers;
    const std::size_t owned_index = s / wl.producers;
    const std::uint64_t frame =
        static_cast<std::uint64_t>(trigger[i]) / vpr * wl.FramesPerRound() +
        owned_index / wl.streams_per_frame;
    const std::vector<std::int64_t>& due = main_phase.producers[p].due_ns;
    if (frame >= due.size()) continue;
    latency_us.push_back(static_cast<double>(read_ns[i] - due[frame]) * 1e-3);
  }
  std::int64_t first_ack = 0;
  std::vector<double> late;
  for (const ProducerStats& s : main_phase.producers) {
    if (first_ack == 0 || (s.first_ack_ns != 0 && s.first_ack_ns < first_ack)) {
      first_ack = s.first_ack_ns;
    }
    late.insert(late.end(), s.late_us.begin(), s.late_us.end());
  }
  const double send_s = static_cast<double>(main_phase.send_ns) * 1e-9;
  auto join = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ", ") + std::to_string(x);
    return out;
  };

  std::printf("%s\n", Fingerprint(KernelBackend(json1)).c_str());
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"server_ready_s\": %.6f, \"send_s\": %.4f"
      ", \"values_per_stream\": %" PRIu64
      ", \"main_values_per_stream\": %" PRIu64 ", \"alerts\": %zu"
      ", \"latency_samples\": %zu, \"detect_p50_us\": %.1f"
      ", \"detect_p99_us\": %.1f, \"checks\": %" PRIu64
      ", \"check_failures\": %" PRIu64
      ", \"live_checkpoints\": %zu, \"live_checkpoint_s_median\": %.6f"
      ", \"generator_late_us_p50\": %.1f, \"generator_late_us_p99\": %.1f"
      ", \"generator_late_us_max\": %.1f"
      ", \"checkpoint_samples_s\": [%s], \"restore_samples_s\": [%s]}}\n",
      wl.name.c_str(), seed,
      static_cast<double>(ready_ns - process_start) * 1e-9, send_s, n, n_main,
      alerts.size(),
      latency_us.size(), Quantile(latency_us, 0.5), Quantile(latency_us, 0.99),
      report.checked(), report.failures(),
      live_checkpoint_s.size(), Median(live_checkpoint_s),
      Quantile(late, 0.5), Quantile(late, 0.99),
      late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
      join(checkpoint_s).c_str(), join(restore_s).c_str());
  for (const std::string& m : report.messages()) {
    std::printf("{\"check_failure\": \"%s\"}\n", m.c_str());
  }

  out->correct = report.ok();
  out->attempted = attempted;
  out->failed = failed;
  out->Add("ingest_appends_per_s", static_cast<double>(accepted_main) / send_s,
           "appends/s");
  out->Add("setup_s", static_cast<double>(first_ack - process_start) * 1e-9,
           "s");
  out->Add("checkpoint_s", Median(checkpoint_s), "s");
  out->Add("restore_s", Median(restore_s), "s");
  out->Add("checkpoint_bytes", static_cast<double>(checkpoint_bytes), "bytes");
  out->Add("peak_rss_mb", rss_kb / 1024.0, "MiB");
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const std::int64_t process_start = e2e::NowNs();
  // A dead server process must surface as a failed pipe write, not kill
  // the generator.
  std::signal(SIGPIPE, SIG_IGN);
  std::string workload, work_root = ".bench_work";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool closed_loop = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--workdir") work_root = value;
    else if (flag == "--closed-loop") closed_loop = std::atoi(value) != 0;
    else {
      std::fprintf(stderr, "e2ebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  e2e::Workload wl;
  if (!e2e::MakeWorkload(workload, &wl) || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <fleet-aggregate|unified-mixed|"
                 "paced-detect> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (closed_loop) wl.frame_period_us = 0.0;
  const std::string work_dir =
      work_root + "/" + workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(work_dir);
  // Before any thread starts: the forked server process inherits it.
  e2e::PinProcessToSpareCores(wl);
  e2e::RunOutput out;
  const int code =
      trace != 0 ? e2e::RunTrace(wl, seed, seconds, work_dir, &out)
                 : e2e::RunEndToEnd(wl, seed, seconds, work_dir,
                                    process_start, &out);
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  if (code != 0) return code;
  std::printf("%s\n", out.Json().c_str());
  return 0;
}
