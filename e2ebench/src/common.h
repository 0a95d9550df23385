// Helpers shared by the generator process, the engine-hosting server
// process and the traced run.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "workload.h"

namespace e2e {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One producer's share of the input: its streams and their generators.
struct ProducerInput {
  std::vector<std::uint32_t> streams;
  std::vector<StreamGen> gens;

  ProducerInput(const Workload& wl, std::uint64_t seed, std::size_t p);
  /// Frame `chunk` of the next round: streams [chunk*K, chunk*K + K) of
  /// this producer, `cycles` times over, `run_len` values each time.
  void BuildFrame(const Workload& wl, std::size_t chunk,
                  stardust::net::BatchMessage* out);
};

/// Line protocol between the generator and the server process (pipes).
void WriteLine(int fd, const std::string& line);
/// Reads one line (without '\n'); false on EOF or error.
bool ReadLine(int fd, std::string* line);

/// Total size of the regular files directly inside `dir`.
std::uint64_t DirBytes(const std::string& dir);

/// `"backend"` of the `"kernels"` section of a metrics JSON line.
std::string KernelBackend(const std::string& metrics_json);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> v);
/// The p-quantile (0..1) by nearest rank of a sample.
double Quantile(std::vector<double> v, double p);

/// One workload run's result line.
struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  std::string Json() const;
};

/// Traced in-process run (see trace.cc). Returns the process exit code.
int RunTrace(Workload wl, std::uint64_t seed, double seconds,
             const std::string& work_dir, RunOutput* out);

/// Body of the engine-hosting server process (see server.cc).
int RunServer(Workload wl, int in_fd, int out_fd);

/// Checks every alert of a run against the oracle: per-stream
/// aggregate, pattern and sketch checks over `n` values per stream, and
/// the correlation checks at the alerts' round times and at the final
/// round. Also returns, per alert, the stream position that triggered it
/// (the crossing tuple of an aggregate episode, the end of a pattern
/// match; -1 for other kinds) for detection-latency timing.
void CheckAlerts(const Workload& wl, std::uint64_t seed, std::uint64_t n,
                 const std::vector<AlertRec>& alerts, const Tolerance& tol,
                 Report* report, std::vector<std::int64_t>* trigger);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
