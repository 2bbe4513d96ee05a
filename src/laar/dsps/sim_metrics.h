#ifndef LAAR_DSPS_SIM_METRICS_H_
#define LAAR_DSPS_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "laar/common/stats.h"
#include "laar/common/status.h"
#include "laar/model/cluster.h"
#include "laar/model/component.h"
#include "laar/obs/loss_ledger.h"
#include "laar/obs/metrics_registry.h"
#include "laar/sim/simulator.h"

namespace laar::dsps {

/// Counters of one PE replica over a simulation run.
struct ReplicaMetrics {
  double cpu_cycles = 0.0;        ///< cycles consumed processing tuples
  uint64_t tuples_arrived = 0;    ///< tuples offered while alive & active
  uint64_t tuples_processed = 0;  ///< tuples fully processed
  uint64_t tuples_emitted = 0;    ///< tuples forwarded downstream (primary only)
  uint64_t tuples_dropped = 0;    ///< queue-overflow drops
  uint64_t tuples_ignored = 0;    ///< tuples discarded while inactive/dead
};

/// Everything measured during one `StreamSimulation` run. All time series
/// share the bucket width from `RuntimeOptions`.
struct SimulationMetrics {
  sim::SimTime duration = 0.0;
  double bucket_seconds = 1.0;

  /// Indexed [component][replica]; non-PE components have empty vectors.
  std::vector<std::vector<ReplicaMetrics>> replicas;

  /// Per-PE logical tuples processed by the acting primary — the measured
  /// counterpart of the "samples processed" metric in Fig. 11.
  std::vector<uint64_t> pe_processed;

  /// Per-host total cycles consumed.
  std::vector<double> host_cycles;

  uint64_t source_tuples = 0;  ///< tuples produced by all sources
  uint64_t sink_tuples = 0;    ///< tuples delivered to all sinks
  uint64_t dropped_tuples = 0; ///< queue-overflow + load-shedding drops

  /// Loss provenance (§9 of DESIGN.md). Every lost tuple copy is counted
  /// once in exactly one of the scalar tallies below, and once in the
  /// per-PE × per-cause `losses` ledger; `ReconcileLosses` cross-checks the
  /// two bookkeeping paths at the end of every run.
  uint64_t shed_tuples = 0;        ///< load-shedding subset of dropped_tuples
  uint64_t crash_lost_tuples = 0;  ///< offered to a dead replica
  uint64_t resync_lost_tuples = 0; ///< offered to a replica mid state-resync
  uint64_t orphaned_tuples = 0;    ///< non-primary outputs suppressed while
                                   ///< the seated primary was unserviceable

  /// Per-PE × per-cause drop provenance, attributed at the point of loss.
  obs::LossLedger losses;

  /// Replica activation-state changes that took effect (both directions;
  /// each reconfiguration contributes one per flipped replica).
  uint64_t activation_switches = 0;

  /// Deepest any port queue ever got, in tuples.
  uint64_t max_queue_depth = 0;

  /// Hosts that actually crashed during the run, in crash order (a host
  /// appears once per crash window). Empty for failure-free and
  /// permanent-failure runs, so publishing it cannot perturb those runs'
  /// registries.
  std::vector<model::HostId> crashed_hosts;

  /// Logical DES events the engine executed for this run (batched inline
  /// deliveries included) — the numerator of benchmark/'s events/sec.
  /// Not serialized: a perf-side statistic, not a simulation outcome.
  uint64_t engine_events = 0;

  /// Per-bucket source-emission and sink-arrival counts.
  std::vector<double> source_series;
  std::vector<double> sink_series;

  /// End-to-end latency (seconds) of every sink tuple, when
  /// `record_latency` is on. A tuple's latency is measured from the source
  /// emission whose processing chain produced it (selectivity makes exact
  /// lineage ambiguous; the triggering tuple's birth time is inherited).
  SampleStats sink_latency;

  /// Per-replica per-bucket cycles; filled when record_replica_series is
  /// set. Indexed [component][replica][bucket].
  std::vector<std::vector<std::vector<double>>> replica_series;

  /// Totals.
  double TotalCpuCycles() const;
  uint64_t TotalProcessed() const;  ///< Σ pe_processed — the IC numerator

  /// Every lost tuple copy, across all causes: queue overflow + shedding
  /// (together `dropped_tuples`) + crash-window, resync-gap, and
  /// orphaned-output losses. Intentional discards by deactivated replicas
  /// are not losses (the strategy planned them) and are excluded.
  uint64_t LostTuples() const;

  /// Verifies that the `losses` ledger reconciles exactly with the scalar
  /// loss counters (per-cause and grand total). `StreamSimulation::Run`
  /// calls this before returning, so every simulation run — and therefore
  /// every simulation test — asserts the accounting; an error here is a
  /// bookkeeping bug in the engine, never a property of the workload.
  Status ReconcileLosses() const;

  /// Mean rate over a window, from a bucketed series.
  static double MeanRate(const std::vector<double>& series, double bucket_seconds,
                         sim::SimTime from, sim::SimTime to);
};

/// Bucket bounds of the published sink-latency histogram (seconds).
inline constexpr double kSinkLatencyHistogramMaxSeconds = 10.0;
inline constexpr size_t kSinkLatencyHistogramBins = 32;

/// Publishes the run's aggregates into `registry` under the canonical
/// `sim_*` names (counters for tuple totals, activation switches, and CPU
/// cycles; a gauge for the worst queue depth; a histogram plus percentile
/// gauges for sink latency), tagged with `labels`.
void PublishTo(obs::MetricsRegistry* registry, const SimulationMetrics& metrics,
               const obs::MetricsRegistry::Labels& labels = {});

/// One-line run digest sourced from the canonical `sim_*` registry entries
/// (not from ad-hoc counters), e.g.
/// "drops=12 switches=8 worst_queue_depth=40 in=1200 out=1100".
std::string RunSummaryFromRegistry(const obs::MetricsRegistry& registry,
                                   const obs::MetricsRegistry::Labels& labels = {});

/// The corpus-level roll-up of `RunSummaryFromRegistry`: the same one-line
/// digest aggregated over every label set in the registry (counters summed,
/// worst queue depth maxed). Latency is omitted — per-run percentiles do
/// not aggregate.
std::string AggregateRunSummaryFromRegistry(const obs::MetricsRegistry& registry);

}  // namespace laar::dsps

#endif  // LAAR_DSPS_SIM_METRICS_H_
