// The three workloads of the end-to-end benchmark and the engine each
// one runs against. Shared by the generator, the engine-hosting server
// process and the traced in-process run, so all three build the same
// engine and the same input for a given seed (see README.md).
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "engine/engine.h"
#include "gen.h"

namespace e2e {

/// One workload: input shape, frame layout, engine shape and queries.
struct Workload {
  std::string name;
  SignalSpec signal;
  std::size_t streams = 0;
  /// Producer connections; producer p owns the streams s with
  /// s % producers == p, so each stream's value order is fixed.
  std::size_t producers = 2;
  /// Frame layout: a frame covers `streams_per_frame` of its producer's
  /// streams, `cycles` times over, with a run of `run_len` values per
  /// stream each time. A round sends every owned stream once.
  std::size_t streams_per_frame = 0;
  std::size_t run_len = 1;
  std::size_t cycles = 1;
  /// Closed loop: producers meet at a barrier every `rounds_per_epoch`
  /// rounds (the run stops only at a barrier, so every stream ends with
  /// the same number of values). Paced: one round per frame period.
  std::size_t rounds_per_epoch = 1;
  double frame_period_us = 0.0;
  /// The main phase is sent in this many equal segments. After each but
  /// the last, the generator waits for one quiesced checkpoint and one
  /// restore from it (the timing samples of checkpoint_s and restore_s),
  /// so the samples are spread over the whole run.
  std::size_t segments = 1;
  /// Epochs sent after the restore.
  std::size_t tail_epochs = 2;
  /// Checkpoint every this many epochs while producers send; 0 = none.
  std::size_t checkpoint_every_epochs = 0;

  // --- Engine -----------------------------------------------------------
  std::size_t shards = 2;
  bool patterns = false;
  bool correlation = false;
  /// Fleet aggregate windows 16 * 2^j for j < fleet_levels.
  std::size_t fleet_levels = 5;
  std::size_t fleet_history = 512;
  /// Queries in registration order (ids are filled in at registration),
  /// followed by the monitors of `dsl` in document order.
  std::vector<QueryDesc> queries;
  /// Monitor document registered through the DSL; its monitors are the
  /// last `dsl_monitors` entries of `queries`.
  std::string dsl;
  std::size_t dsl_monitors = 0;

  std::size_t FramesPerRound() const {
    const std::size_t owned = streams / producers;
    return (owned + streams_per_frame - 1) / streams_per_frame;
  }
  /// Values each stream receives per round.
  std::size_t ValuesPerRound() const { return run_len * cycles; }
  bool paced() const { return frame_period_us > 0.0; }
};

/// The named workload; false for an unknown name.
bool MakeWorkload(const std::string& name, Workload* out);

/// Streams owned by producer `p`, ascending.
std::vector<std::uint32_t> OwnedStreams(const Workload& wl, std::size_t p);

/// The engine configuration of a workload.
stardust::StardustConfig FleetConfig(const Workload& wl);
stardust::EngineConfig EngineConfigFor(const Workload& wl);

/// Restricts the calling process (and the threads it starts later) to
/// the cores the shard workers are not pinned to. No-op on hosts with
/// fewer than two cores per shard.
void PinProcessToSpareCores(const Workload& wl);

/// Creates the engine (restoring from `restore_dir` when non-empty).
stardust::Result<std::unique_ptr<stardust::IngestEngine>> CreateEngine(
    const Workload& wl, const std::string& restore_dir);

/// Registers every query of the workload (C++ specs, then the DSL
/// monitors) and writes the assigned ids into wl->queries.
stardust::Status RegisterQueries(stardust::IngestEngine* engine,
                                 Workload* wl);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
