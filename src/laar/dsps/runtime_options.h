#ifndef LAAR_DSPS_RUNTIME_OPTIONS_H_
#define LAAR_DSPS_RUNTIME_OPTIONS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace laar::obs {
class TraceRecorder;
class LatencyTracer;
class MetricsRegistry;
class EngineProfiler;
}

namespace laar::dsps {

/// Tunables of the simulated stream-processing runtime. Defaults mirror the
/// paper's deployment (§5.2) and its LAAR middleware layer (§4.6, §5.1).
struct RuntimeOptions {
  /// Input queues hold this many seconds of tuples at the peak ("High")
  /// arrival rate of their port (§5.2); overflowing tuples are dropped.
  double queue_seconds = 2.0;

  /// Tuples subtracted from each window count before the dominating-config
  /// lookup. Counting tuples over a finite window quantizes the measured
  /// rate to ±1 tuple/window; without this allowance a source running
  /// exactly at a configuration's rate intermittently measures one tuple
  /// high and the controller flaps to the next configuration up.
  double monitor_tolerance_tuples = 1.0;

  /// State re-synchronization pause when a replica is (re)activated (§4.6).
  double resync_latency_seconds = 0.5;

  /// Whether the HAController reacts to Rate Monitor reports at runtime.
  /// Off, the strategy of the initial configuration stays applied (static
  /// variants behave identically either way).
  bool dynamic_control = true;

  /// Record per-replica CPU time series (Fig. 3-style plots); costs memory
  /// proportional to replicas × buckets.
  bool record_replica_series = false;

  /// Track end-to-end tuple latency (source emission to sink arrival,
  /// attributed through the tuple that triggered each emission). Costs one
  /// sample per sink tuple.
  bool record_latency = true;

  /// Load shedding (§2's alternative to LAAR [25, 29, 30]): when a port's
  /// queue exceeds `shed_threshold` of its capacity, incoming tuples are
  /// shed at a rate that ramps linearly from 0 at the threshold to 1 at a
  /// full queue. Shedding keeps queues (hence latency) short during
  /// overload at the price of completeness; shed tuples are counted as
  /// drops. The shedder is deterministic (credit-based, no randomness).
  bool enable_load_shedding = false;
  double shed_threshold = 0.5;

  /// Structured event sink for this run (drops, queue watermarks,
  /// activation switches, failures, config changes, processing spans); see
  /// obs/trace_recorder.h. Null (the default) disables tracing at the cost
  /// of one pointer check per would-be event. The recorder must outlive the
  /// simulation and must not be shared between concurrent simulations.
  obs::TraceRecorder* trace_recorder = nullptr;

  /// Sampled per-tuple causal tracing (see obs/latency_tracer.h). Null (the
  /// default) disables it at the cost of one pointer check per tuple step;
  /// a tracer whose sample rate is 0 is equally inert. Like the trace
  /// recorder: must outlive the simulation, one simulation per tracer.
  obs::LatencyTracer* latency_tracer = nullptr;

  /// Destination for periodic time-series telemetry (per-host CPU
  /// utilization, per-operator queue depth, drop/output rates over
  /// simulation time). Null disables the sampler entirely; sampling never
  /// perturbs the simulated dynamics, only observes them.
  obs::MetricsRegistry* telemetry = nullptr;

  /// Sim-time interval between telemetry snapshots.
  double telemetry_period_seconds = 1.0;

  /// Labels attached to every telemetry series — how corpus workers keep
  /// their series disjoint (one writer per label set) in a shared registry.
  std::vector<std::pair<std::string, std::string>> telemetry_labels;

  /// Minimum inter-host link latency in simulated seconds. Zero (the
  /// default) keeps the historical synchronous-delivery engine: a tuple
  /// crossing hosts arrives within the same event. A positive value
  /// activates the conservative-window engine (DESIGN.md §10): every
  /// cross-host tuple transfer takes between one and two link latencies
  /// (deliveries are quantized to window boundaries), and the run may be
  /// partitioned across `shards` threads. The window width equals this
  /// latency — it is exactly the lookahead that makes per-host execution
  /// independent within a window.
  double link_latency_seconds = 0.0;

  /// Number of event-engine shards (threads) the hosts are partitioned
  /// over. Requires `link_latency_seconds > 0` when > 1. Any value yields
  /// byte-identical metrics/trace/timeseries/health outputs for a fixed
  /// `link_latency_seconds`; shards only change wall-clock time.
  int shards = 1;

  /// Topology link-latency multipliers, applied per host pair on top of
  /// `link_latency_seconds` (the intra-rack floor): a tuple crossing racks
  /// inside a zone travels a `rack_latency_factor`-window link; one crossing
  /// zones a `zone_latency_factor`-window link. Both must be integers >= 1
  /// (a zero- or sub-window link would break the conservative lookahead —
  /// Build rejects it); factors are windows, so deliveries stay quantized to
  /// barrier boundaries and artifacts stay shard-invariant.
  /// Source injection always uses factor 1. The defaults model the uniform
  /// topology the historical engine assumed.
  int rack_latency_factor = 1;
  int zone_latency_factor = 1;

  /// Engine self-profiling sink (see obs/engine_profiler.h): per-shard ×
  /// per-phase wall-clock accounting plus deterministic window/traffic
  /// counters. Null (the default) disables every profiling hook, so the
  /// simulated dynamics and all artifacts are bit-for-bit unaffected. Must
  /// outlive the simulation; one simulation per profiler per run.
  obs::EngineProfiler* profiler = nullptr;
};

}  // namespace laar::dsps

#endif  // LAAR_DSPS_RUNTIME_OPTIONS_H_
