#ifndef LAAR_OBS_ENGINE_PROFILER_H_
#define LAAR_OBS_ENGINE_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "laar/common/result.h"
#include "laar/common/status.h"
#include "laar/json/json.h"

namespace laar::obs {

class MetricsRegistry;

/// Nominal wire size of one cross-host tuple message, used for the
/// deterministic transfer-byte accounting in the traffic matrix. This is a
/// documented modelling constant — dst host + src host + sequence + payload
/// descriptor — NOT `sizeof` of any in-memory struct, so the byte counters
/// are identical across platforms and compilers.
inline constexpr uint64_t kNetMessageWireBytes = 40;

/// One run's engine self-profile, split into two strictly separated halves:
///
///  * **Deterministic counters** — functions of the event timeline only
///    (windows executed, per-window event totals, per-shard event counts,
///    the shard×shard traffic matrix, inbox backlog depths). These are
///    golden-testable; their *aggregate* subset is additionally invariant
///    across `--shards` counts (see `DeterministicAggregateJson`).
///  * **Measured wall-clock** — per-shard execute time, barrier stall,
///    loop wall. Never part of any hashed or `cmp`'d artifact.
///
/// Populated by `EngineProfiler` through the hooks `dsps::StreamSimulation`
/// and `exec::ShardRunner` call when a profiler is attached.
struct EngineProfile {
  // ---- deterministic: run shape --------------------------------------
  int shards = 1;                ///< shard count the engine actually used
  double window_seconds = 0.0;   ///< conservative-window width (0 = sync engine)
  uint64_t windows = 0;          ///< windows executed (incl. trailing partial)
  uint64_t empty_windows = 0;    ///< windows in which no shard ran any event
  uint64_t engine_events = 0;    ///< SimulationMetrics::engine_events (closure target)
  uint64_t control_events = 0;   ///< coordinator control-plane events
  uint64_t barrier_sink_tuples = 0;  ///< sink arrivals replayed at barriers

  // ---- deterministic: per shard (shard-count dependent) --------------
  std::vector<uint64_t> shard_events;         ///< [shard] heap events executed
  std::vector<uint64_t> shard_inline_events;  ///< [shard] inline source steps
  std::vector<uint64_t> shard_max_inbox;      ///< [shard] deepest inbox drain
  uint64_t max_host_inbox_backlog = 0;  ///< deepest per-destination-host run

  /// [src][dst] tuples rotated from shard `src`'s staging buffer into shard
  /// `dst`'s inbox, summed over all barriers. The diagonal is cross-host
  /// traffic that happens to stay on one shard (it still rides the windowed
  /// network). Bytes are `tuples * kNetMessageWireBytes`.
  std::vector<std::vector<uint64_t>> traffic_tuples;

  /// Coordinator rounds executed, one ShardRunner phase each (0 for the
  /// synchronous engine). Not part of the hashed aggregate.
  uint64_t dispatch_rounds = 0;

  // ---- deterministic: per window (shards-invariant series) -----------
  /// Per-window totals, in window order. Kept in memory for the Chrome
  /// counter track and the golden aggregate; serialized to JSON only as
  /// summary statistics + an FNV-1a digest (a 60k-window run would bloat
  /// the profile file otherwise).
  std::vector<uint64_t> window_events;      ///< events summed over shards
  std::vector<uint64_t> window_net_tuples;  ///< tuples rotated at each barrier
  std::vector<double> window_end_times;     ///< sim time of each window's barrier

  // ---- measured: wall clock (never hashed) ---------------------------
  /// Effective ShardRunner executor count (after the hardware_concurrency
  /// clamp), calling thread included. Environment-dependent, so it lives in
  /// the measured half even though it is an integer.
  int runner_workers = 0;
  uint64_t phases = 0;               ///< RunPhase calls observed
  double loop_wall_seconds = 0.0;    ///< whole windowed loop (or sync RunUntil)
  double phase_wall_seconds = 0.0;   ///< Σ per-phase coordinator wall
  /// Σ per-phase max shard execute. A single-executor runner
  /// (`runner_workers == 1`) serializes each phase, so there the critical
  /// path is the per-phase *sum* of shard executes instead.
  double critical_path_seconds = 0.0;
  std::vector<double> shard_execute_seconds;  ///< [shard] Σ execute
  /// [shard] Σ (phase − execute): time spent waiting at phase barriers.
  /// Exactly 0 for single-executor runs — a serialized phase has no barrier
  /// wait, and the phase−execute gap there is the other shards' execute
  /// time (see the ShardRunner::PhaseObserver contract).
  std::vector<double> shard_stall_seconds;

  /// Bounded per-phase log: sim-time extent plus wall-clock cost. Capped
  /// (see `EngineProfiler::set_max_phase_records`) so web-scale runs with
  /// 100k+ windows don't grow the profile unboundedly.
  struct PhaseRecord {
    double sim_begin = 0.0;
    double sim_end = 0.0;
    double wall_seconds = 0.0;
    std::vector<double> execute_seconds;  ///< [shard]
  };
  std::vector<PhaseRecord> phase_records;
  bool phase_records_truncated = false;

  // ---- derived -------------------------------------------------------
  uint64_t ShardEventTotal() const;      ///< Σ shard (heap + inline) events
  uint64_t TrafficTuplesTotal() const;   ///< full traffic-matrix sum
  uint64_t CrossShardTuples() const;     ///< off-diagonal traffic-matrix sum
  double EmptyWindowFraction() const;    ///< empty_windows / windows
  /// Hottest shard's event total over the ideal per-shard share (1.0 =
  /// perfectly balanced). Returns 0 when no shard ran any event.
  double ImbalanceRatio() const;
  /// 1 − critical_path / loop_wall: the fraction of loop wall time not
  /// explained by the slowest shard's execution — barrier dispatch, wake-up
  /// latency, and coordinator work between phases.
  double SyncOverheadFraction() const;
  /// Shard's execute time over loop wall (its worker-thread duty cycle).
  double UtilizationOf(int shard) const;

  /// ReconcileLosses-style closure over the event accounting:
  ///   control_events + Σ_s (shard_events[s] + shard_inline_events[s])
  ///     == engine_events
  /// and, for windowed runs, Σ window_events == Σ shard (heap+inline)
  /// events. Returns Internal with the mismatch spelled out on failure.
  Status ReconcileEvents() const;

  /// Full profile document, schema "laar-engine-profile-v1":
  /// {"deterministic": {..., "aggregate", "per_shard", "traffic_matrix"},
  ///  "measured": {...}}. Deterministic and measured never share a subtree.
  json::Value ToJson() const;

  /// The shards-invariant deterministic subset, schema
  /// "laar-engine-profile-aggregate-v1". For a fixed workload and link
  /// latency this document is byte-identical at every `--shards` count —
  /// run_checks.sh `cmp`s it across shard counts and sharded_sim_test
  /// golden-hashes it.
  json::Value DeterministicAggregateJson() const;

  /// Parses a document produced by `ToJson` (per-window series are not
  /// recoverable — only their serialized summaries survive a round trip).
  static Result<EngineProfile> FromJson(const json::Value& value);
};

/// Accumulates an `EngineProfile` from the engine's hook calls. Attach via
/// `dsps::RuntimeOptions::profiler`; like the other observers it is
/// null-by-default and adds nothing to any artifact unless requested.
///
/// Threading: all hooks are called from the coordinator thread (the
/// deterministic counters the shard threads contribute are folded in at
/// barriers by the engine itself), so the profiler needs no locking.
class EngineProfiler {
 public:
  /// Resets the profile for a run with `shards` shards and the given
  /// conservative-window width (0 for the synchronous engine).
  void Configure(int shards, double window_seconds);

  // -- deterministic hooks --
  /// Closes one conservative window: total events executed across shards,
  /// tuples rotated at its barrier, and the barrier's sim time.
  void RecordWindow(uint64_t total_events, uint64_t net_tuples,
                    double end_time);
  /// Adds `tuples` to the traffic matrix cell [src][dst].
  void RecordTraffic(int src, int dst, uint64_t tuples);
  void RecordBarrierSinkTuples(uint64_t tuples);
  /// End-of-run totals for one shard.
  void SetShardTotals(int shard, uint64_t events, uint64_t inline_events,
                      uint64_t max_inbox, uint64_t max_host_backlog);
  void SetControlEvents(uint64_t events);
  void SetEngineEvents(uint64_t events);
  /// Coordinator round total (windowed engine only).
  void SetDispatchRounds(uint64_t rounds);

  // -- measured hooks --
  /// Effective executor count reported by the ShardRunner.
  void SetRunnerWorkers(int workers);
  /// Declares the sim-time extent of the next phase (coordinator, before
  /// `ShardRunner::RunPhase`).
  void BeginPhase(double sim_begin, double sim_end);
  /// `ShardRunner` phase-observer payload (see its PhaseObserver contract).
  void OnPhaseTiming(double phase_seconds,
                     const std::vector<double>& execute_seconds);
  void SetLoopWallSeconds(double seconds);

  /// Caps `phase_records` (default 4096); timing totals keep accumulating
  /// past the cap, only the per-phase log stops growing.
  void set_max_phase_records(size_t max_records) {
    max_phase_records_ = max_records;
  }

  const EngineProfile& profile() const { return profile_; }

 private:
  EngineProfile profile_;
  double pending_sim_begin_ = 0.0;
  double pending_sim_end_ = 0.0;
  size_t max_phase_records_ = 4096;
};

/// Publishes the shards-invariant deterministic aggregate as `prof_*`
/// entries in `registry` (counters for event/traffic totals, gauges for
/// fractions and backlog depth). Only invariant values are published, so a
/// metrics artifact with profiling enabled is still byte-identical across
/// `--shards` counts. Measured wall-clock is never published here.
void PublishProfile(MetricsRegistry* registry, const EngineProfile& profile);

/// Appends the "runner" track to a Chrome trace document produced by
/// `ToChromeTraceJson`: a synthetic process (pid `kRunnerTrackPid`) whose
/// threads are the ShardRunner workers, with one "X" span per recorded
/// phase positioned at its sim-time extent (measured wall-clock in `args`)
/// and per-window "C" counter events for event totals and rotated tuples.
/// The result still passes `ValidateChromeTrace`. No-op for a profile with
/// neither phases nor windows (synchronous engine).
void AppendRunnerTrack(json::Value* chrome_trace, const EngineProfile& profile);

inline constexpr int64_t kRunnerTrackPid = 1000000;

}  // namespace laar::obs

#endif  // LAAR_OBS_ENGINE_PROFILER_H_
