// The engine-hosting process: IngestEngine + net::NetServer on an
// ephemeral loopback port, driven by line commands from the benchmark
// generator process over a pipe pair.
//
//   -> READY <port>                      after boot and query registration
//   CKPT <dir>     -> OK <seconds>       Checkpoint while producers send
//   SAMPLE <dir>   -> SAMPLED <checkpoint_s>
//                     Flush, then one quiesced checkpoint into <dir>
//   DRAIN          -> STATS k=v ...      Flush, one synchronous correlator
//                     JSON <metrics>     round, bus drain; then counters
//   RESTORE <dir>  -> RESTORED <port> <checkpoint_s> <bytes> <restore_s>
//                     one quiesced checkpoint into <dir>, stop, one timed
//                     restore from it, serve again
//   QUIT           -> BYE
// STATS carries peak_rss_kb, the process's peak resident set so far.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "net/server.h"

namespace e2e {

using namespace stardust;

namespace {

double Seconds(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::string Stats(IngestEngine* engine, net::NetServer* server) {
  std::uint64_t stream_sum = 0;
  for (std::size_t s = 0; s < engine->num_streams(); ++s) {
    stream_sum += engine->StreamAppendCount(static_cast<StreamId>(s));
  }
  const EngineMetrics& m = engine->metrics();
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "STATS appended=%" PRIu64 " stream_sum=%" PRIu64 " posted=%" PRIu64
      " dropped=%" PRIu64 " append_errors=%" PRIu64 " published=%" PRIu64
      " delivered=%" PRIu64 " bus_dropped=%" PRIu64 " next_seq=%" PRIu64
      " hub_dropped=%" PRIu64 " peak_rss_kb=%ld",
      m.appended.load(), stream_sum, m.posted.load(),
      m.dropped_newest.load() + m.dropped_oldest.load(),
      m.append_errors.load(), engine->alerts().published(),
      engine->alerts().delivered(),
      engine->alerts().dropped_newest() + engine->alerts().dropped_oldest(),
      server->hub().next_seq(),
      server->hub().dropped_newest() + server->hub().dropped_oldest(),
      PeakRssKb());
  return buf;
}

}  // namespace

int RunServer(Workload wl, int in_fd, int out_fd) {
  Result<std::unique_ptr<IngestEngine>> created = CreateEngine(wl, "");
  if (!created.ok()) {
    std::fprintf(stderr, "server: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<IngestEngine> engine = std::move(created).value();
  const Status registered = RegisterQueries(engine.get(), &wl);
  if (!registered.ok()) {
    std::fprintf(stderr, "server: %s\n", registered.ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<net::NetServer>> started =
      net::NetServer::Start(engine.get());
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::NetServer> server = std::move(started).value();
  std::string ready = "READY " + std::to_string(server->port());
  for (const QueryDesc& q : wl.queries) ready += " " + std::to_string(q.id);
  WriteLine(out_fd, ready);

  std::string line;
  while (ReadLine(in_fd, &line)) {
    if (line.rfind("CKPT ", 0) == 0) {
      const std::int64_t start = NowNs();
      const Status st = engine->Checkpoint(line.substr(5));
      if (!st.ok()) {
        WriteLine(out_fd, "ERR " + st.ToString());
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "OK %.9f", Seconds(start));
      WriteLine(out_fd, buf);
    } else if (line == "DRAIN") {
      Status st = engine->Flush();
      if (st.ok() && wl.correlation) {
        engine->TriggerCorrelatorRound();
        st = engine->Flush();
      }
      if (st.ok()) st = engine->alerts().WaitDrained();
      if (!st.ok()) {
        WriteLine(out_fd, "ERR " + st.ToString());
        continue;
      }
      WriteLine(out_fd, Stats(engine.get(), server.get()));
      WriteLine(out_fd, "JSON " + server->MetricsJson());
    } else if (line.rfind("SAMPLE ", 0) == 0) {
      Status st = engine->Flush();
      const std::int64_t start = NowNs();
      if (st.ok()) st = engine->Checkpoint(line.substr(7));
      if (!st.ok()) {
        WriteLine(out_fd, "ERR " + st.ToString());
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "SAMPLED %.9f", Seconds(start));
      WriteLine(out_fd, buf);
    } else if (line.rfind("RESTORE ", 0) == 0) {
      const std::string dir = line.substr(8);
      const std::int64_t checkpoint_start = NowNs();
      Status st = engine->Checkpoint(dir);
      const double checkpoint_s = Seconds(checkpoint_start);
      if (st.ok()) st = server->Stop();
      if (st.ok()) st = engine->Stop();
      server.reset();
      engine.reset();
      double restore_s = 0;
      if (st.ok()) {
        const std::int64_t restore_start = NowNs();
        Result<std::unique_ptr<IngestEngine>> restored = CreateEngine(wl, dir);
        restore_s = Seconds(restore_start);
        if (restored.ok()) {
          engine = std::move(restored).value();
        } else {
          st = restored.status();
        }
      }
      if (st.ok()) {
        Result<std::unique_ptr<net::NetServer>> again =
            net::NetServer::Start(engine.get());
        if (again.ok()) {
          server = std::move(again).value();
        } else {
          st = again.status();
        }
      }
      if (!st.ok()) {
        WriteLine(out_fd, "ERR " + st.ToString());
        return 1;
      }
      char buf[160];
      std::snprintf(buf, sizeof buf, "RESTORED %u %.9f %" PRIu64 " %.9f",
                    static_cast<unsigned>(server->port()), checkpoint_s,
                    DirBytes(dir), restore_s);
      WriteLine(out_fd, buf);
    } else if (line == "QUIT") {
      (void)server->Stop();
      (void)engine->Stop();
      server.reset();
      engine.reset();
      WriteLine(out_fd, "BYE");
      return 0;
    } else {
      WriteLine(out_fd, "ERR unknown command " + line);
    }
  }
  return 1;
}

}  // namespace e2e
