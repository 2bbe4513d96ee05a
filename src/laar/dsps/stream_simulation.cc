#include "laar/dsps/stream_simulation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "laar/common/stopwatch.h"
#include "laar/common/strings.h"
#include "laar/exec/shard_runner.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/trace_recorder.h"

namespace laar::dsps {

namespace {

/// Completion slack: a replica whose remaining work is below this fraction
/// of a second of host capacity is considered done (absorbs FP drift in the
/// processor-sharing integration).
constexpr double kCompletionSlackSeconds = 1e-9;

/// Queue capacity floor in tuples, so very slow ports still buffer.
constexpr size_t kMinQueueCapacity = 4;

/// Rate Monitor measurement window / reporting period (§4.6).
constexpr double kMonitorPeriodSeconds = 1.0;

/// Delay between the HAController deciding a replica-set change and the
/// activation/deactivation commands taking effect at the proxies.
constexpr double kControlLatencySeconds = 0.1;

/// Time for heartbeat-based failure detection and primary takeover by an
/// already-active secondary.
constexpr double kFailoverLatencySeconds = 1.0;

/// Width of every recorded time series bucket.
constexpr double kTimeseriesBucketSeconds = 1.0;

/// A port's queue-high event fires when its occupancy crosses this
/// fraction of capacity upward; it re-arms once occupancy falls back to
/// half the watermark.
constexpr double kQueueWatermarkFraction = 0.9;

/// Ring capacity of each telemetry series (oldest samples evicted).
constexpr size_t kTelemetryCapacity = 1u << 12;

/// One buffered tuple: its port, the source-emission time it traces back
/// to (for end-to-end latency), when it entered the queue, and its
/// latency-tracer span (0 for the untraced majority).
struct QueuedTuple {
  int port;
  sim::SimTime birth;
  sim::SimTime enqueued = 0.0;
  uint32_t span = 0;
};

/// Tuple FIFO over one ring buffer per replica, recycled in place. It starts
/// empty and doubles when full, so it settles at the replica's high-water
/// backlog and every push from then on is allocation-free — the per-node
/// std::deque churn this replaces was a top allocation site. A replica's
/// backlog is bounded by the sum of its port capacities (DeliverToReplica
/// drops past that), and growth is clamped at that bound, so a saturated
/// replica ends at exactly the bound. Sizing every ring to the bound up
/// front cost 190 MB on the web-scale profile, of which under 1% held a
/// tuple.
class TupleRing {
 public:
  void set_bound(size_t bound) { bound_ = std::max<size_t>(1, bound); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const QueuedTuple& front() const { return slots_[head_]; }

  void pop_front() {
    head_ = Next(head_);
    --size_;
  }

  void push_back(const QueuedTuple& tuple) {
    if (size_ == slots_.size()) Grow();
    slots_[tail_] = tuple;
    tail_ = Next(tail_);
    ++size_;
  }

  void clear() {
    head_ = 0;
    tail_ = 0;
    size_ = 0;
  }

 private:
  size_t Next(size_t i) const { return i + 1 == slots_.size() ? 0 : i + 1; }

  void Grow() {
    size_t capacity = std::max<size_t>(1, slots_.size() * 2);
    // Past the bound the doubling continues (defensive; the queue
    // accounting keeps the backlog within it).
    if (slots_.size() < bound_) capacity = std::min(capacity, bound_);
    std::vector<QueuedTuple> bigger(capacity);
    for (size_t i = 0; i < size_; ++i) bigger[i] = slots_[(head_ + i) % slots_.size()];
    slots_ = std::move(bigger);
    head_ = 0;
    tail_ = size_;
  }

  std::vector<QueuedTuple> slots_;
  size_t bound_ = 1;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
};

/// Turns a counting pass's per-key histogram into each key's first output
/// slot (an exclusive prefix sum), in place.
void CountsToOffsets(std::vector<uint32_t>* counts) {
  uint32_t next = 0;
  for (uint32_t& count : *counts) {
    const uint32_t here = count;
    count = next;
    next += here;
  }
}

}  // namespace

/// One bounded input queue of a replica, fed by a single upstream component
/// (§5.2: "one queue for each input port").
struct StreamSimulation::Port {
  model::ComponentId from = model::kInvalidComponent;
  double selectivity = 1.0;
  double cpu_cost = 0.0;   // cycles per tuple on this port
  size_t capacity = 0;     // tuples
  size_t queued = 0;
  double selectivity_acc = 0.0;  // §5.2 footnote 3 accumulator
  double shed_credit = 0.0;      // deterministic load-shedding accumulator

  size_t watermark = 0;          // queue-high trip level, in tuples
  bool above_watermark = false;  // trip state; re-arms at half the watermark
};

/// Where a component's output goes: a sink, or a specific input port of a
/// downstream PE (delivered to every replica of that PE).
struct Output {
  bool is_sink = false;
  model::ComponentId to = model::kInvalidComponent;
  int port_index = -1;
};

struct StreamSimulation::Replica {
  model::ComponentId pe_id = model::kInvalidComponent;
  int index = 0;
  model::HostId host = model::kInvalidHost;

  bool alive = true;
  bool active = true;
  bool resyncing = false;
  /// Killed for good by `InjectPermanentReplicaFailure`; host recovery must
  /// never resurrect it.
  bool permanently_failed = false;
  uint64_t resync_epoch = 0;

  bool processing = false;
  int processing_port = -1;
  double remaining_cycles = 0.0;
  sim::SimTime processing_birth = 0.0;  // birth time of the in-flight tuple
  sim::SimTime processing_start = 0.0;  // when the in-flight tuple left the queue
  uint32_t processing_span = 0;         // latency-tracer span of that tuple

  std::vector<Port> ports;
  TupleRing fifo;  // arrival order of queued tuples (see TupleRing)
};

struct StreamSimulation::PeState {
  model::ComponentId id = model::kInvalidComponent;
  std::vector<Replica> replicas;
  int primary = -1;
  std::vector<Output> outputs;
};

struct StreamSimulation::HostState {
  model::HostId id = model::kInvalidHost;
  double capacity = 0.0;  // cycles/sec
  std::vector<Replica*> busy;
  sim::SimTime last_advance = 0.0;

  /// The host's single service event, kept alive across busy-set changes
  /// and moved in place with Simulator::Reschedule; `completion_target` is
  /// its payload (the replica whose completion the event realizes).
  sim::EventId completion_event = sim::kInvalidEvent;
  Replica* completion_target = nullptr;

  /// Crash lifecycle. Overlapping crash windows on one host merge into a
  /// single outage ending at `down_until`; `crash_epoch` identifies the
  /// latest crash so that recovery timers armed by superseded crashes are
  /// discarded instead of reviving the host early.
  uint64_t crash_epoch = 0;
  sim::SimTime down_until = 0.0;
};

struct StreamSimulation::SourceState {
  model::ComponentId id = model::kInvalidComponent;
  size_t source_index = 0;
  uint64_t emitted = 0;
  uint64_t monitor_snapshot = 0;
  std::vector<Output> outputs;

  /// Windowed engine: sources are pseudo-hosts `num_hosts + source_index`
  /// on the network, with their own owning shard.
  int32_t net_host = -1;
  int shard = 0;
};

/// One tuple copy in flight between hosts in the windowed engine. A message
/// emitted during window `w` over a link whose latency factor is `f` windows
/// is due — delivered on the destination shard — at barrier `w + 1 + f`:
/// between `f` and `f + 1` link latencies after emission. The uniform
/// topology (every factor 1) reproduces the historical double-buffer
/// schedule exactly (due `w + 2`). A message carries no sequence number:
/// its place in its source host's emission order is its place among that
/// host's messages in every outbox and due bucket (see DrainDue).
struct StreamSimulation::NetMessage {
  model::HostId dst_host = model::kInvalidHost;
  int32_t src_host = -1;  // emitting host, or a source's pseudo-host id
  model::ComponentId to = model::kInvalidComponent;
  int replica = 0;
  int port = -1;
  sim::SimTime birth = 0.0;
  uint64_t due = 0;  // barrier index the message is delivered at
};

/// A tuple headed for a sink. Sinks are external, so arrivals are applied
/// by the coordinator at window-barrier closures, replayed in (src_host,
/// emission) order — sink-latency accumulation is FP-order-sensitive, and
/// this order is the partition-invariant one.
struct StreamSimulation::SinkMessage {
  int32_t src_host = -1;
  sim::SimTime birth = 0.0;
  uint64_t due = 0;  // barrier index the arrival is replayed at
};

/// One event-engine shard: a subset of hosts (`host % num_shards`) with its
/// own pooled-slab simulator, plus everything those hosts write during a
/// phase that the rest of the simulation may not touch concurrently —
/// loss/emission accumulators (folded into `metrics_` when the run ends;
/// every fold is exact, so fold order cannot matter), buffered tuple-plane
/// trace events, and the network double buffers.
///
/// Synchronous mode keeps a single Shard as the accumulator target; its
/// `sim` stays empty (the one global engine runs everything).
struct StreamSimulation::Shard {
  sim::Simulator sim;
  int index = 0;

  uint64_t dropped_tuples = 0;
  uint64_t shed_tuples = 0;
  uint64_t crash_lost_tuples = 0;
  uint64_t resync_lost_tuples = 0;
  uint64_t orphaned_tuples = 0;
  uint64_t max_queue_depth = 0;
  obs::LossLedger losses;

  // Source-side accumulators (windowed mode only; the synchronous engine's
  // SourceEmit writes metrics_ directly, single-threaded).
  uint64_t source_tuples = 0;
  uint64_t inline_events = 0;  // emissions drained inline, no heap round-trip
  std::vector<double> source_series;

  // --- window progress (owned by the shard's slice; the coordinator reads
  // it only while workers are parked) ---
  uint64_t crossed = 0;       ///< barriers crossed == index of the open window
  uint64_t drained = 0;       ///< last barrier whose due messages were drained
  uint64_t window_index = 0;  ///< window currently (or most recently) running
  sim::SimTime phase_end = 0.0;  ///< end of the running slice (sources park here)

  // Inbound messages keyed by due barrier (a map, not a ring: a topology
  // latency factor puts a due that many windows out). Drained — ordered and
  // delivered — when the window opening at that barrier starts. Each
  // bucket holds every source host's messages in emission order (see
  // DrainDue).
  std::map<uint64_t, std::vector<NetMessage>> pending;
  // DrainDue's counting-pass scratch, kept across drains: the src_host and
  // dst_host histograms, and the batch's index permutation after each pass.
  std::vector<uint32_t> src_counts;
  std::vector<uint32_t> dst_counts;
  std::vector<uint32_t> by_src;
  std::vector<uint32_t> delivery_order;
  // Current-window emissions per destination shard. Sealed at each barrier
  // crossing: own-shard segments append straight into `pending`, cross-shard
  // segments queue in `sealed` for the coordinator to move at round end.
  std::vector<std::vector<NetMessage>> outbox;
  std::vector<std::pair<int, std::vector<NetMessage>>> sealed;
  // Recycled message storage: drained buckets and moved segments return
  // here, and new buckets and sealed segments take from it, so the pool
  // holds about one vector per bucket or segment in flight.
  std::vector<std::vector<NetMessage>> segment_pool;

  // Sink arrivals in emission order (their dues are nondecreasing); the
  // coordinator replays and erases the due-<= prefix at each barrier
  // closure, so at most one window of arrivals stays queued.
  std::vector<SinkMessage> sink_sealed;

  // Tuple-plane trace events, merged per window at barrier closures.
  // `trace_marks` records (window, end offset) at each crossing so the
  // coordinator can slice the buffer into per-window batches.
  std::vector<obs::TraceEvent> trace_buffer;
  std::vector<std::pair<uint64_t, size_t>> trace_marks;
  size_t trace_mark_cursor = 0;
  size_t trace_merged = 0;

  // HostCompletionEvent working set, reused across events.
  std::vector<Replica*> finished_scratch;

  // Engine-profiler accumulators (untouched unless a profiler is attached).
  // Written only by the shard's own slice, folded by the coordinator at
  // barrier closures and at end of run — the same ownership discipline as
  // the loss accumulators above.
  uint64_t prof_prev_events = 0;    ///< heap+inline total at the last snapshot
  uint64_t prof_max_inbox = 0;      ///< deepest due batch seen at a drain
  uint64_t prof_max_host_inbox = 0; ///< longest per-destination-host run
  std::map<uint64_t, uint64_t> win_events;  ///< window -> events executed

  /// The due bucket for `due`, backed by pooled storage when it is new.
  /// Called by the shard's own slice (same-shard sealing) and by the
  /// coordinator while every shard is parked (cross-shard moves).
  std::vector<NetMessage>& Bucket(uint64_t due) {
    auto [it, created] = pending.try_emplace(due);
    if (created && !segment_pool.empty()) {
      it->second = std::move(segment_pool.back());
      segment_pool.pop_back();
    }
    return it->second;
  }
};

/// Handles into the telemetry registry plus the previous snapshot, so each
/// tick publishes window rates (not cumulative totals) without rescanning
/// the registry. Series pointers stay valid for the registry's lifetime.
struct StreamSimulation::TelemetryState {
  double period = 1.0;
  obs::TimeSeries* source_rate = nullptr;    // tuples/sec entering the app
  obs::TimeSeries* output_rate = nullptr;    // tuples/sec reaching sinks
  obs::TimeSeries* drop_rate = nullptr;      // tuples/sec lost (overflow+shed)
  obs::TimeSeries* pending_events = nullptr; // DES heap size (engine health)
  std::vector<obs::TimeSeries*> host_util;   // [host] CPU utilization in [0,1]
  std::vector<obs::TimeSeries*> queue_depth; // [component] total queued tuples

  double prev_time = 0.0;
  uint64_t prev_source = 0;
  uint64_t prev_sink = 0;
  uint64_t prev_dropped = 0;
  std::vector<double> prev_host_cycles;
};

StreamSimulation::~StreamSimulation() = default;

StreamSimulation::StreamSimulation(const model::ApplicationDescriptor& app,
                                   const model::Cluster& cluster,
                                   const model::ReplicaPlacement& placement,
                                   const strategy::ActivationStrategy& strategy,
                                   const InputTrace& trace, const RuntimeOptions& options)
    : app_(app),
      cluster_(cluster),
      placement_(placement),
      strategy_(strategy),
      trace_(trace),
      options_(options) {}

Status StreamSimulation::Build() {
  if (built_) return Status::OK();
  if (!app_.graph.validated()) {
    return Status::FailedPrecondition("application graph must be validated");
  }
  LAAR_RETURN_IF_ERROR(cluster_.Validate());
  LAAR_RETURN_IF_ERROR(placement_.Validate(cluster_, /*require_anti_affinity=*/false));
  if (trace_.segments().empty()) return Status::FailedPrecondition("empty input trace");
  if (options_.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options_.shards > 1 && options_.link_latency_seconds <= 0.0) {
    return Status::InvalidArgument(
        "shards > 1 requires link_latency_seconds > 0 (the conservative window)");
  }
  windowed_ = options_.link_latency_seconds > 0.0;
  if (windowed_ && options_.latency_tracer != nullptr) {
    return Status::InvalidArgument(
        "the latency tracer is not supported by the windowed engine");
  }
  if (windowed_) {
    if (options_.rack_latency_factor < 1 || options_.zone_latency_factor < 1) {
      return Status::InvalidArgument(
          "latency factors must be >= 1 window: a zero-latency cross-host "
          "link would break the conservative lookahead");
    }
  } else if (options_.rack_latency_factor != 1 || options_.zone_latency_factor != 1) {
    return Status::InvalidArgument(
        "topology latency factors require link_latency_seconds > 0");
  }
  uniform_latency_ =
      options_.rack_latency_factor == 1 && options_.zone_latency_factor == 1;

  LAAR_ASSIGN_OR_RETURN(rates_, model::ExpectedRates::Compute(app_.graph, app_.input_space));
  LAAR_ASSIGN_OR_RETURN(config_index_, configindex::ConfigIndex::Build(app_.input_space));

  const model::ApplicationGraph& graph = app_.graph;
  const int k = placement_.replication_factor();
  const model::ConfigId peak = app_.input_space.PeakConfig();

  metrics_ = SimulationMetrics{};
  metrics_.bucket_seconds = kTimeseriesBucketSeconds;
  metrics_.duration = trace_.TotalDuration();
  const size_t num_buckets =
      static_cast<size_t>(std::ceil(metrics_.duration / metrics_.bucket_seconds)) + 1;
  metrics_.replicas.resize(graph.num_components());
  metrics_.pe_processed.assign(graph.num_components(), 0);
  metrics_.host_cycles.assign(cluster_.num_hosts(), 0.0);
  metrics_.source_series.assign(num_buckets, 0.0);
  metrics_.sink_series.assign(num_buckets, 0.0);
  if (options_.record_replica_series) {
    metrics_.replica_series.resize(graph.num_components());
  }

  hosts_.clear();
  hosts_.reserve(cluster_.hosts().size());
  for (const model::Host& host : cluster_.hosts()) {
    auto state = std::make_unique<HostState>();
    state->id = host.id;
    state->capacity = host.capacity_cycles_per_sec;
    hosts_.push_back(std::move(state));
  }

  // Shards: hosts are partitioned round-robin (`host % num_shards`). The
  // synchronous engine keeps one shard purely as the accumulator target.
  num_shards_ = 1;
  if (windowed_) {
    num_shards_ = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(options_.shards), hosts_.size()));
    if (num_shards_ < 1) num_shards_ = 1;
  }
  shard_of_host_.assign(hosts_.size(), 0);
  for (size_t h = 0; h < hosts_.size(); ++h) {
    shard_of_host_[h] = static_cast<int>(h % static_cast<size_t>(num_shards_));
  }
  shards_.clear();
  for (int s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->outbox.resize(static_cast<size_t>(num_shards_));
    shard->source_series.assign(metrics_.source_series.size(), 0.0);
    shards_.push_back(std::move(shard));
  }
  // Per-host-pair latency factors, materialized only when some factor
  // differs from 1 — uniform runs take the branch-free `due = window + 2`
  // path and never touch the table.
  host_pair_factor_.clear();
  if (windowed_ && !uniform_latency_) {
    const size_t n = hosts_.size();
    host_pair_factor_.assign(n * n, 1);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        host_pair_factor_[a * n + b] = HostPairFactor(static_cast<model::HostId>(a),
                                                      static_cast<model::HostId>(b));
      }
    }
  }
  profiling_ = options_.profiler != nullptr;
  if (profiling_) {
    options_.profiler->Configure(num_shards_,
                                 windowed_ ? options_.link_latency_seconds : 0.0);
  }

  // PEs with their replicas and ports.
  pes_.clear();
  pes_.resize(graph.num_components());
  for (model::ComponentId pe : graph.Pes()) {
    auto state = std::make_unique<PeState>();
    state->id = pe;
    state->replicas.resize(static_cast<size_t>(k));
    metrics_.replicas[static_cast<size_t>(pe)].resize(static_cast<size_t>(k));
    if (options_.record_replica_series) {
      metrics_.replica_series[static_cast<size_t>(pe)].assign(
          static_cast<size_t>(k), std::vector<double>(num_buckets, 0.0));
    }
    for (int r = 0; r < k; ++r) {
      Replica& replica = state->replicas[static_cast<size_t>(r)];
      replica.pe_id = pe;
      replica.index = r;
      replica.host = placement_.HostOf(pe, r);
      if (replica.host == model::kInvalidHost) {
        return Status::FailedPrecondition(StrFormat("PE %d replica %d is unplaced", pe, r));
      }
      replica.ports.reserve(graph.IncomingEdges(pe).size());
      for (size_t edge_index : graph.IncomingEdges(pe)) {
        const model::Edge& e = graph.edges()[edge_index];
        Port port;
        port.from = e.from;
        port.selectivity = e.selectivity;
        port.cpu_cost = e.cpu_cost_cycles;
        // Sized for `queue_seconds` of the port's peak-configuration
        // arrival rate (§5.2).
        const double peak_rate = rates_.Rate(e.from, peak);
        port.capacity = std::max<size_t>(
            kMinQueueCapacity,
            static_cast<size_t>(std::ceil(options_.queue_seconds * peak_rate)));
        port.watermark = std::max<size_t>(
            1, static_cast<size_t>(std::ceil(kQueueWatermarkFraction *
                                             static_cast<double>(port.capacity))));
        replica.ports.push_back(port);
      }
      size_t backlog_bound = 0;
      for (const Port& port : replica.ports) backlog_bound += port.capacity;
      replica.fifo.set_bound(backlog_bound);
    }
    pes_[static_cast<size_t>(pe)] = std::move(state);
  }

  // Output wiring: port index of edge (u, v) at v = position of that edge
  // within v's incoming edge list.
  auto port_index_at = [&graph](model::ComponentId from, model::ComponentId to) {
    const auto& incoming = graph.IncomingEdges(to);
    for (size_t i = 0; i < incoming.size(); ++i) {
      if (graph.edges()[incoming[i]].from == from) return static_cast<int>(i);
    }
    return -1;
  };
  auto outputs_of = [&](model::ComponentId id) {
    std::vector<Output> outputs;
    outputs.reserve(graph.OutgoingEdges(id).size());
    for (size_t edge_index : graph.OutgoingEdges(id)) {
      const model::Edge& e = graph.edges()[edge_index];
      Output output;
      output.to = e.to;
      output.is_sink = graph.IsSink(e.to);
      output.port_index = output.is_sink ? -1 : port_index_at(id, e.to);
      outputs.push_back(output);
    }
    return outputs;
  };
  for (model::ComponentId pe : graph.Pes()) {
    pes_[static_cast<size_t>(pe)]->outputs = outputs_of(pe);
  }

  sources_.clear();
  sources_.reserve(graph.Sources().size());
  for (model::ComponentId source : graph.Sources()) {
    auto state = std::make_unique<SourceState>();
    state->id = source;
    LAAR_ASSIGN_OR_RETURN(state->source_index, app_.input_space.SourceIndexOf(source));
    state->outputs = outputs_of(source);
    state->net_host = static_cast<int32_t>(hosts_.size() + state->source_index);
    state->shard =
        static_cast<int>(state->source_index % static_cast<size_t>(num_shards_));
    sources_.push_back(std::move(state));
  }
  // Extend the shard lookup past the real hosts with the sources'
  // pseudo-host ids (net_host = hosts + source_index), so drained tuples
  // can be attributed to their emitting shard uniformly by src_host.
  shard_of_host_.resize(hosts_.size() + sources_.size(), 0);
  for (const auto& source : sources_) {
    shard_of_host_[static_cast<size_t>(source->net_host)] = source->shard;
  }

  // Initial activation state: the strategy entry of the configuration the
  // trace starts in, applied instantaneously (deployment-time setup).
  applied_config_ = trace_.ConfigAt(0.0);
  for (model::ComponentId pe : graph.Pes()) {
    PeState* state = pes_[static_cast<size_t>(pe)].get();
    for (Replica& replica : state->replicas) {
      replica.active = strategy_.IsActive(pe, replica.index, applied_config_);
    }
  }
  // Telemetry series, created up front so a run with no samples still
  // exports empty series under stable names.
  telemetry_.reset();
  if (options_.telemetry != nullptr && options_.telemetry_period_seconds > 0.0) {
    auto telemetry = std::make_unique<TelemetryState>();
    telemetry->period = options_.telemetry_period_seconds;
    auto series = [this](const char* name, obs::MetricsRegistry::Labels extra) {
      obs::MetricsRegistry::Labels labels = options_.telemetry_labels;
      labels.insert(labels.end(), extra.begin(), extra.end());
      return options_.telemetry->GetTimeSeries(name, labels, kTelemetryCapacity);
    };
    telemetry->source_rate = series("ts_source_rate", {});
    telemetry->output_rate = series("ts_output_rate", {});
    telemetry->drop_rate = series("ts_drop_rate", {});
    telemetry->pending_events = series("ts_pending_events", {});
    telemetry->host_util.resize(hosts_.size(), nullptr);
    for (size_t h = 0; h < hosts_.size(); ++h) {
      telemetry->host_util[h] =
          series("ts_host_cpu_util", {{"host", std::to_string(h)}});
    }
    telemetry->queue_depth.assign(pes_.size(), nullptr);
    for (model::ComponentId pe : graph.Pes()) {
      telemetry->queue_depth[static_cast<size_t>(pe)] =
          series("ts_queue_depth", {{"pe", std::to_string(pe)}});
    }
    telemetry->prev_host_cycles.assign(hosts_.size(), 0.0);
    telemetry_ = std::move(telemetry);
  }
  // Windowed mode leaves the recorder detached from every engine: backlog
  // sampling is keyed to one engine's event count, which is exactly what a
  // partition changes. All other trace paths are partition-invariant.
  if (!windowed_) simulator_.set_trace_recorder(options_.trace_recorder);
  built_ = true;
  return Status::OK();
}

Status StreamSimulation::InjectPermanentReplicaFailure(model::ComponentId pe, int replica) {
  LAAR_RETURN_IF_ERROR(Build());
  if (pe < 0 || static_cast<size_t>(pe) >= pes_.size() || pes_[static_cast<size_t>(pe)] == nullptr) {
    return Status::InvalidArgument(StrFormat("component %d is not a PE", pe));
  }
  PeState* state = pes_[static_cast<size_t>(pe)].get();
  if (replica < 0 || static_cast<size_t>(replica) >= state->replicas.size()) {
    return Status::InvalidArgument(StrFormat("PE %d has no replica %d", pe, replica));
  }
  state->replicas[static_cast<size_t>(replica)].alive = false;
  state->replicas[static_cast<size_t>(replica)].permanently_failed = true;
  if (Tracing(obs::Category::kFailures)) {
    options_.trace_recorder->Instant(obs::EventName::kReplicaCrash, simulator_.now(), pe,
                                     replica,
                                     state->replicas[static_cast<size_t>(replica)].host);
  }
  return Status::OK();
}

Status StreamSimulation::ScheduleHostCrash(model::HostId host, sim::SimTime at,
                                           sim::SimTime duration) {
  LAAR_RETURN_IF_ERROR(Build());
  if (host < 0 || static_cast<size_t>(host) >= hosts_.size()) {
    return Status::InvalidArgument(StrFormat("unknown host %d", host));
  }
  // Finite first: a NaN passes both comparisons below, and a NaN-keyed
  // crash at the heap root would stop the run before its first event.
  if (!std::isfinite(at) || !std::isfinite(duration) || at < 0.0 || duration <= 0.0) {
    return Status::InvalidArgument(
        "crash time must be finite and >= 0 with a finite positive duration");
  }
  simulator_.ScheduleAt(at, [this, host, duration] { CrashHost(host, duration); });
  return Status::OK();
}

Status StreamSimulation::Run() {
  if (ran_) return Status::FailedPrecondition("simulation already ran");
  LAAR_RETURN_IF_ERROR(Build());
  ran_ = true;

  // Primaries after the initial activation state and injected failures.
  for (auto& pe : pes_) {
    if (pe != nullptr) ElectPrimary(pe.get());
  }

  // Announce the input-configuration timeline up front: the trace is known
  // ahead of time, so each segment boundary becomes one instant event (the
  // exporter sorts by timestamp).
  if (Tracing(obs::Category::kConfig)) {
    sim::SimTime at = 0.0;
    for (const TraceSegment& segment : trace_.segments()) {
      options_.trace_recorder->Instant(obs::EventName::kInputConfig, at, /*pe=*/-1,
                                       /*replica=*/-1, /*host=*/-1, /*port=*/-1,
                                       static_cast<double>(segment.config));
      at += segment.duration;
    }
  }

  // Source drivers: the first tuple of each source fires one inter-arrival
  // interval into the trace.
  for (auto& source : sources_) {
    SourceState* state = source.get();
    const double rate =
        app_.input_space.RateOf(state->source_index, trace_.ConfigAt(0.0));
    if (rate > 0.0) {
      if (windowed_) {
        shards_[static_cast<size_t>(state->shard)]->sim.ScheduleAt(
            1.0 / rate, [this, state] { WindowedSourceEmit(state); });
      } else {
        simulator_.ScheduleAt(1.0 / rate, [this, state] { SourceEmit(state); });
      }
    }
  }

  // The LAAR middleware loop (Rate Monitor -> HAController).
  if (options_.dynamic_control) {
    simulator_.ScheduleAt(kMonitorPeriodSeconds, [this] { MonitorTick(); });
  }

  // The telemetry sampler (read-only; see TelemetryTick).
  if (telemetry_ != nullptr && telemetry_->period <= trace_.TotalDuration()) {
    simulator_.ScheduleAt(telemetry_->period, [this] { TelemetryTick(); });
  }

  if (windowed_) {
    RunWindowedLoop();
  } else if (profiling_) {
    // Degenerate profile for the synchronous engine: no windows or phases,
    // but the loop wall and the event closure still hold.
    Stopwatch loop_watch;
    simulator_.RunUntil(trace_.TotalDuration());
    options_.profiler->SetLoopWallSeconds(loop_watch.ElapsedSeconds());
  } else {
    simulator_.RunUntil(trace_.TotalDuration());
  }

  // Flush processor-sharing accounting up to the horizon.
  for (auto& host : hosts_) AdvanceHost(host.get());

  // Fold the per-shard accumulators into the run totals. Every merge is
  // exact — unsigned adds, integer-valued double adds, maxima, ledger
  // tallies — so shard order cannot leak into the results.
  metrics_.engine_events = simulator_.events_processed();
  for (auto& shard : shards_) {
    metrics_.engine_events += shard->sim.events_processed() + shard->inline_events;
    metrics_.source_tuples += shard->source_tuples;
    metrics_.dropped_tuples += shard->dropped_tuples;
    metrics_.shed_tuples += shard->shed_tuples;
    metrics_.crash_lost_tuples += shard->crash_lost_tuples;
    metrics_.resync_lost_tuples += shard->resync_lost_tuples;
    metrics_.orphaned_tuples += shard->orphaned_tuples;
    metrics_.max_queue_depth = std::max(metrics_.max_queue_depth, shard->max_queue_depth);
    for (size_t i = 0; i < shard->source_series.size(); ++i) {
      metrics_.source_series[i] += shard->source_series[i];
    }
    for (const obs::LossLedger::Row& row : shard->losses.Rows()) {
      metrics_.losses.Record(row.pe, row.cause, row.count);
    }
  }
  // End-of-run profiler fold: per-shard event totals and backlog maxima,
  // plus the coordinator's control-plane count — the operands of the
  // profiler's own closure check (Σ shard events + control == engine).
  if (profiling_) {
    obs::EngineProfiler* profiler = options_.profiler;
    profiler->SetControlEvents(simulator_.events_processed());
    for (int s = 0; s < num_shards_; ++s) {
      Shard* shard = shards_[static_cast<size_t>(s)].get();
      profiler->SetShardTotals(s, shard->sim.events_processed(),
                               shard->inline_events, shard->prof_max_inbox,
                               shard->prof_max_host_inbox);
    }
    profiler->SetEngineEvents(metrics_.engine_events);
  }

  // Loss provenance must reconcile on every run: the ledger and the scalar
  // counters are maintained independently at each loss site, so agreement
  // is a real invariant, not a tautology.
  return metrics_.ReconcileLosses();
}

// ---------------------------------------------------------------------------
// The windowed / sharded engine (DESIGN.md §10)
// ---------------------------------------------------------------------------

sim::Simulator& StreamSimulation::SimOfHost(model::HostId host) {
  if (!windowed_) return simulator_;
  return shards_[static_cast<size_t>(shard_of_host_[static_cast<size_t>(host)])]->sim;
}

StreamSimulation::Shard& StreamSimulation::AccOfHost(model::HostId host) {
  return *shards_[static_cast<size_t>(shard_of_host_[static_cast<size_t>(host)])];
}

void StreamSimulation::TupleInstant(Shard& acc, obs::EventName name, double time,
                                    int32_t pe, int32_t replica, int32_t host,
                                    int32_t port, double value) {
  if (!windowed_) {
    options_.trace_recorder->Instant(name, time, pe, replica, host, port, value);
    return;
  }
  obs::TraceEvent event;
  event.name = name;
  event.time = time;
  event.pe = pe;
  event.replica = replica;
  event.host = host;
  event.port = port;
  event.value = value;
  acc.trace_buffer.push_back(event);
}

void StreamSimulation::TupleSpan(Shard& acc, obs::EventName name, double begin,
                                 double duration, int32_t pe, int32_t replica,
                                 int32_t host, int32_t port) {
  if (!windowed_) {
    options_.trace_recorder->Span(name, begin, duration, pe, replica, host, port);
    return;
  }
  obs::TraceEvent event;
  event.name = name;
  event.time = begin;
  event.duration = duration;
  event.pe = pe;
  event.replica = replica;
  event.host = host;
  event.port = port;
  acc.trace_buffer.push_back(event);
}

uint32_t StreamSimulation::HostPairFactor(model::HostId src, model::HostId dst) const {
  if (src == dst) return 1;
  const model::FailureTopology& topology = cluster_.topology();
  if (topology.ZoneOf(src) != topology.ZoneOf(dst)) {
    return static_cast<uint32_t>(options_.zone_latency_factor);
  }
  if (topology.RackOf(src) != topology.RackOf(dst)) {
    return static_cast<uint32_t>(options_.rack_latency_factor);
  }
  return 1;
}

void StreamSimulation::RunWindowedLoop() {
  const sim::SimTime horizon = trace_.TotalDuration();
  const double window = options_.link_latency_seconds;
  exec::ShardRunner runner(num_shards_);
  obs::EngineProfiler* profiler = profiling_ ? options_.profiler : nullptr;
  if (profiler != nullptr) {
    profiler->SetRunnerWorkers(runner.workers());
    runner.set_phase_observer(
        [profiler](double phase_seconds,
                   const std::vector<double>& execute_seconds) {
          profiler->OnPhaseTiming(phase_seconds, execute_seconds);
        });
  }
  Stopwatch loop_watch;  // read only when profiling

  // Barriers are computed as window * index, never accumulated: FP error
  // must not drift with the barrier count, and index -> time must be the
  // one mapping every comparison below shares — in particular, "is this
  // time exactly a barrier" is decided with the same product the barrier
  // itself was computed from (never floor(t / window)).
  const auto barrier_time = [window](uint64_t index) {
    return window * static_cast<double>(index);
  };
  const auto barrier_at_or_below = [&barrier_time](sim::SimTime t, uint64_t hint) {
    uint64_t index = hint;
    while (barrier_time(index + 1) <= t) ++index;
    while (index > 0 && barrier_time(index) > t) --index;
    return index;
  };
  // Shards advance in lockstep: between rounds every shard has crossed the
  // same barriers and parks at the same time, so shard 0 speaks for all.
  const Shard& front = *shards_[0];

  uint64_t closed = 0;  // barriers closed so far (closures run in order)
  const auto close_through = [&](uint64_t limit) {
    while (closed < limit) {
      ++closed;
      CloseBarrier(closed, barrier_time(closed));
    }
  };

  // Distributes sealed cross-shard segments into the destinations' due maps
  // and recycles the storage. Coordinator-only, all shards parked; this is
  // the only point where one shard's messages enter another's state.
  const auto move_segments = [&]() {
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard* src = shards_[s].get();
      for (auto& entry : src->sealed) {
        Shard* dst = shards_[static_cast<size_t>(entry.first)].get();
        std::vector<NetMessage>& messages = entry.second;
        size_t i = 0;
        while (i < messages.size()) {
          size_t j = i + 1;
          while (j < messages.size() && messages[j].due == messages[i].due) ++j;
          std::vector<NetMessage>& bucket = dst->Bucket(messages[i].due);
          bucket.insert(bucket.end(), messages.begin() + static_cast<ptrdiff_t>(i),
                        messages.begin() + static_cast<ptrdiff_t>(j));
          i = j;
        }
        messages.clear();
        src->segment_pool.push_back(std::move(messages));
      }
      src->sealed.clear();
    }
  };

  // The round plan, written here while the shards are parked and read by
  // every shard's slice.
  uint64_t target_barrier = 0;
  sim::SimTime target_time = 0.0;
  bool final_round = false;
  const std::function<void(int)> slice_fn = [&](int s) {
    RunShardSlice(s, target_barrier, target_time, final_round);
  };
  uint64_t rounds = 0;

  // Round loop. Each round advances every shard by one window, or to the
  // next control time if that comes first, then (workers parked again)
  // moves sealed traffic and closes matured barriers. Capping at the
  // control time means control actions always run with every shard parked
  // at exactly that time — the same control-before-local order at equal
  // times, and the same per-shard stop set, as the historical engine.
  for (;;) {
    const sim::SimTime now = front.sim.now();
    if (now >= horizon) break;
    sim::SimTime cap_time = horizon;
    sim::SimTime control_at = 0.0;
    if (simulator_.NextEventTime(&control_at) && control_at < cap_time) {
      cap_time = control_at;
    }
    if (now >= cap_time) {
      // Rounds never pass the pending control time, so every shard is
      // parked exactly there. Close matured barriers strictly below it, run
      // the control actions, close a barrier coinciding with it, re-plan.
      // (Control events only ever schedule other control events, so
      // RunUntil leaves the control heap strictly beyond the cap — the loop
      // always makes progress.)
      const uint64_t at_control = front.crossed;
      uint64_t strictly_below = at_control;
      if (strictly_below > 0 && barrier_time(strictly_below) == cap_time) {
        --strictly_below;
      }
      close_through(strictly_below);
      simulator_.RunUntil(cap_time);
      close_through(at_control);
      continue;
    }

    const uint64_t cap_barrier = barrier_at_or_below(cap_time, closed);
    const uint64_t next = front.crossed + 1;
    target_barrier = std::min(next, cap_barrier);
    target_time = next <= cap_barrier ? barrier_time(next) : cap_time;
    ++rounds;
    if (profiler != nullptr) profiler->BeginPhase(now, target_time);
    runner.RunPhase(slice_fn);
    move_segments();
    uint64_t mature = front.crossed;
    if (mature > 0 && barrier_time(mature) == cap_time) --mature;
    close_through(mature);
  }

  // All shards are parked at the horizon (exclusive). Control events at
  // exactly the horizon belong to the run, then a barrier closure coinciding
  // with it, then one final inclusive round for shard events at the horizon
  // — the same order the historical loop used (control, rotate, final
  // phase).
  simulator_.RunUntil(horizon);
  close_through(front.crossed);
  target_barrier = front.crossed;
  target_time = horizon;
  final_round = true;
  ++rounds;
  if (profiler != nullptr) profiler->BeginPhase(horizon, horizon);
  runner.RunPhase(slice_fn);
  MergeRemainingTraces();
  if (profiler != nullptr) {
    // Close the trailing window: either the horizon fell between barriers
    // (leftover events past the last closure) or nothing ever closed
    // (horizon shorter than one window) — a run always has >= 1 window.
    uint64_t leftover = 0;
    for (auto& shard : shards_) {
      for (const auto& entry : shard->win_events) leftover += entry.second;
      shard->win_events.clear();
    }
    if (leftover > 0 || profiler->profile().windows == 0) {
      profiler->RecordWindow(leftover, /*net_tuples=*/0, horizon);
    }
    profiler->SetDispatchRounds(rounds);
    profiler->SetLoopWallSeconds(loop_watch.ElapsedSeconds());
  }
}

void StreamSimulation::RunShardSlice(int s, uint64_t target_barrier,
                                     sim::SimTime target_time, bool final_round) {
  Shard* shard = shards_[static_cast<size_t>(s)].get();
  const uint64_t w = shard->crossed;
  if (shard->drained < w) DrainDue(shard, w);
  shard->window_index = w;
  shard->phase_end = target_time;
  if (final_round) {
    // Inclusive horizon slice: events at exactly the horizon belong to the
    // run (RunBefore excluded them), as do messages due at a barrier
    // coinciding with it.
    shard->sim.RunUntil(target_time);
  } else {
    shard->sim.RunBefore(target_time);
  }
  if (profiling_) {
    const uint64_t total = shard->sim.events_processed() + shard->inline_events;
    shard->win_events[w] += total - shard->prof_prev_events;
    shard->prof_prev_events = total;
  }
  // A round that stops short of the next barrier (at a control time or the
  // horizon) leaves the window open: no seal, no crossing.
  if (target_barrier > w) {
    SealWindow(shard);
    shard->crossed = target_barrier;
  }
}

void StreamSimulation::DrainDue(Shard* shard, uint64_t barrier) {
  shard->drained = barrier;
  auto it = shard->pending.find(barrier);
  if (it == shard->pending.end()) return;
  std::vector<NetMessage>& batch = it->second;
  // Delivery order is (dst_host, src_host, emission order): it ranks every
  // message and does not depend on the partition, so it fixes one order
  // for all shard counts. Deliveries to different hosts touch disjoint
  // state; per (src_host, dst_host) pair the order is emission order. The
  // bucket already holds each source host's messages in emission order: an
  // outbox is in emission order, buckets fill window by window, and a
  // host's messages reach this shard by one path only (the shard's own seal
  // or the coordinator's move). So two stable counting passes over host ids
  // — src_host, then dst_host — give that order as an index permutation;
  // the messages never move.
  const uint32_t n = static_cast<uint32_t>(batch.size());
  shard->src_counts.assign(shard_of_host_.size(), 0);
  shard->dst_counts.assign(hosts_.size(), 0);
  for (const NetMessage& msg : batch) {
    ++shard->src_counts[static_cast<size_t>(msg.src_host)];
    ++shard->dst_counts[static_cast<size_t>(msg.dst_host)];
  }
  if (profiling_) {
    // Conservative-window efficiency: how deep a due batch gets, both per
    // shard and for the single busiest destination host (its dst_host
    // count). Both are deterministic; the per-host maximum is also
    // partition-invariant.
    shard->prof_max_inbox = std::max(shard->prof_max_inbox, static_cast<uint64_t>(n));
    for (uint32_t count : shard->dst_counts) {
      shard->prof_max_host_inbox = std::max<uint64_t>(shard->prof_max_host_inbox, count);
    }
  }
  CountsToOffsets(&shard->src_counts);
  CountsToOffsets(&shard->dst_counts);
  shard->by_src.resize(n);
  shard->delivery_order.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    shard->by_src[shard->src_counts[static_cast<size_t>(batch[i].src_host)]++] = i;
  }
  for (uint32_t i : shard->by_src) {
    shard->delivery_order[shard->dst_counts[static_cast<size_t>(batch[i].dst_host)]++] = i;
  }
  for (uint32_t i : shard->delivery_order) {
    const NetMessage& msg = batch[i];
    Replica& target =
        pes_[static_cast<size_t>(msg.to)]->replicas[static_cast<size_t>(msg.replica)];
    DeliverToReplica(&target, msg.port, msg.birth, /*span=*/0);
  }
  batch.clear();
  shard->segment_pool.push_back(std::move(batch));
  shard->pending.erase(it);
}

void StreamSimulation::SealWindow(Shard* shard) {
  for (int d = 0; d < num_shards_; ++d) {
    std::vector<NetMessage>& box = shard->outbox[static_cast<size_t>(d)];
    if (box.empty()) continue;
    if (d == shard->index) {
      // Same-shard cross-host tuples never leave the shard: append them to
      // the local due map directly (their dues are >= two barriers out, so
      // the open window cannot observe them).
      size_t i = 0;
      while (i < box.size()) {
        size_t j = i + 1;
        while (j < box.size() && box[j].due == box[i].due) ++j;
        std::vector<NetMessage>& bucket = shard->Bucket(box[i].due);
        bucket.insert(bucket.end(), box.begin() + static_cast<ptrdiff_t>(i),
                      box.begin() + static_cast<ptrdiff_t>(j));
        i = j;
      }
      box.clear();
      continue;
    }
    std::vector<NetMessage> segment;
    if (!shard->segment_pool.empty()) {
      segment = std::move(shard->segment_pool.back());
      shard->segment_pool.pop_back();
    }
    segment.swap(box);
    shard->sealed.emplace_back(d, std::move(segment));
  }
  if (options_.trace_recorder != nullptr) {
    const size_t prev_end =
        shard->trace_marks.empty() ? shard->trace_merged : shard->trace_marks.back().second;
    if (shard->trace_buffer.size() > prev_end) {
      shard->trace_marks.emplace_back(shard->window_index, shard->trace_buffer.size());
    }
  }
}

void StreamSimulation::CloseBarrier(uint64_t index, sim::SimTime stop) {
  // Sink arrivals due at this barrier. Replay order must be fixed across
  // partitions because sink-latency accumulation is FP-order sensitive;
  // (src_host, emission order) ranks every arrival and is
  // partition-invariant. Every host's arrivals sit in one shard's queue, in
  // emission order, so one stable counting pass on src_host over the
  // concatenated due prefixes gives that order.
  sink_scratch_.clear();
  for (auto& shard : shards_) {
    std::vector<SinkMessage>& sealed = shard->sink_sealed;
    auto replayed = sealed.begin();
    while (replayed != sealed.end() && replayed->due <= index) ++replayed;
    sink_scratch_.insert(sink_scratch_.end(), sealed.begin(), replayed);
    sealed.erase(sealed.begin(), replayed);
  }
  sink_counts_.assign(shard_of_host_.size(), 0);
  for (const SinkMessage& msg : sink_scratch_) {
    ++sink_counts_[static_cast<size_t>(msg.src_host)];
  }
  CountsToOffsets(&sink_counts_);
  sink_births_.resize(sink_scratch_.size());
  for (const SinkMessage& msg : sink_scratch_) {
    sink_births_[sink_counts_[static_cast<size_t>(msg.src_host)]++] = msg.birth;
  }
  for (const sim::SimTime birth : sink_births_) {
    ++metrics_.sink_tuples;
    metrics_.sink_series[BucketOf(stop)] += 1.0;
    if (options_.record_latency) metrics_.sink_latency.Add(stop - birth);
  }
  if (profiling_) {
    options_.profiler->RecordBarrierSinkTuples(sink_scratch_.size());
    // The window ending at this barrier: events every shard executed in it,
    // plus the tuples due here. A barrier closes before any shard opens the
    // window it starts, so those tuples are all still pending; the traffic
    // matrix counts each tuple exactly once, at its delivery barrier's
    // closure (tuples due past the horizon are never counted).
    uint64_t events = 0;
    uint64_t net = 0;
    std::vector<uint64_t> by_src;
    for (auto& shard : shards_) {
      while (!shard->win_events.empty() &&
             shard->win_events.begin()->first + 1 <= index) {
        events += shard->win_events.begin()->second;
        shard->win_events.erase(shard->win_events.begin());
      }
      by_src.assign(static_cast<size_t>(num_shards_), 0);
      auto pit = shard->pending.find(index);
      if (pit != shard->pending.end()) {
        for (const NetMessage& msg : pit->second) {
          ++by_src[static_cast<size_t>(
              shard_of_host_[static_cast<size_t>(msg.src_host)])];
        }
      }
      for (size_t src = 0; src < by_src.size(); ++src) {
        if (by_src[src] == 0) continue;
        net += by_src[src];
        options_.profiler->RecordTraffic(static_cast<int>(src), shard->index,
                                         by_src[src]);
      }
    }
    options_.profiler->RecordWindow(events, net, stop);
  }
  if (options_.trace_recorder == nullptr) return;
  // Merge the trace batches of the window ending here. Closures run in
  // barrier order, so each shard's contribution is the slice between its
  // merge cursor and the last crossing mark at or below this window.
  trace_scratch_.clear();
  for (auto& shard : shards_) {
    size_t end = shard->trace_merged;
    while (shard->trace_mark_cursor < shard->trace_marks.size() &&
           shard->trace_marks[shard->trace_mark_cursor].first + 1 <= index) {
      end = shard->trace_marks[shard->trace_mark_cursor].second;
      ++shard->trace_mark_cursor;
    }
    trace_scratch_.insert(trace_scratch_.end(),
                          shard->trace_buffer.begin() + static_cast<ptrdiff_t>(shard->trace_merged),
                          shard->trace_buffer.begin() + static_cast<ptrdiff_t>(end));
    shard->trace_merged = end;
    if (shard->trace_merged == shard->trace_buffer.size() &&
        shard->trace_mark_cursor == shard->trace_marks.size() &&
        shard->trace_merged > 0) {
      // Fully merged: recycle the buffer storage in place.
      shard->trace_buffer.clear();
      shard->trace_marks.clear();
      shard->trace_mark_cursor = 0;
      shard->trace_merged = 0;
    } else if (shard->trace_merged >= (size_t{1} << 16)) {
      // A control-capped partial window leaves an unmerged tail; compact the
      // merged prefix so the buffer stays bounded by a few windows' events.
      shard->trace_buffer.erase(
          shard->trace_buffer.begin(),
          shard->trace_buffer.begin() + static_cast<ptrdiff_t>(shard->trace_merged));
      shard->trace_marks.erase(
          shard->trace_marks.begin(),
          shard->trace_marks.begin() + static_cast<ptrdiff_t>(shard->trace_mark_cursor));
      for (auto& mark : shard->trace_marks) mark.second -= shard->trace_merged;
      shard->trace_mark_cursor = 0;
      shard->trace_merged = 0;
    }
  }
  // (time, host) totally orders the merge across partitions: equal-time
  // events on different hosts sort by host, and equal (time, host) events
  // all come from the one shard owning that host, where the stable sort
  // preserves their execution order.
  std::stable_sort(trace_scratch_.begin(), trace_scratch_.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.host < b.host;
                   });
  for (const obs::TraceEvent& event : trace_scratch_) {
    options_.trace_recorder->Record(event);
  }
}

void StreamSimulation::MergeRemainingTraces() {
  if (options_.trace_recorder == nullptr) return;
  trace_scratch_.clear();
  for (auto& shard : shards_) {
    trace_scratch_.insert(trace_scratch_.end(),
                          shard->trace_buffer.begin() + static_cast<ptrdiff_t>(shard->trace_merged),
                          shard->trace_buffer.end());
    shard->trace_buffer.clear();
    shard->trace_marks.clear();
    shard->trace_mark_cursor = 0;
    shard->trace_merged = 0;
  }
  std::stable_sort(trace_scratch_.begin(), trace_scratch_.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.host < b.host;
                   });
  for (const obs::TraceEvent& event : trace_scratch_) {
    options_.trace_recorder->Record(event);
  }
}

void StreamSimulation::WindowedSourceEmit(SourceState* source) {
  Shard& shard = *shards_[static_cast<size_t>(source->shard)];
  const sim::SimTime horizon = trace_.TotalDuration();
  sim::SimTime t = shard.sim.now();
  // Emissions touch only per-source and per-shard state (counters, series,
  // network outboxes), so the whole phase can drain inline regardless of
  // what else is pending on this shard — unlike the synchronous engine's
  // batched SourceEmit, whose heap peeking would make emission batching
  // depend on which hosts share the engine.
  // Source injection always travels a factor-1 link: due two barriers after
  // the emitting window, exactly the historical double-buffer schedule.
  const uint64_t due = shard.window_index + 2;
  for (;;) {
    ++source->emitted;
    ++shard.source_tuples;
    shard.source_series[BucketOf(t)] += 1.0;
    for (const Output& output : source->outputs) {
      if (output.is_sink) {
        shard.sink_sealed.push_back(
            SinkMessage{source->net_host, t, due});
      } else {
        PeState* downstream = pes_[static_cast<size_t>(output.to)].get();
        for (Replica& target : downstream->replicas) {
          shard.outbox[static_cast<size_t>(shard_of_host_[static_cast<size_t>(target.host)])]
              .push_back(NetMessage{target.host, source->net_host, output.to,
                                    target.index, output.port_index, t, due});
        }
      }
    }
    const double rate =
        app_.input_space.RateOf(source->source_index, trace_.ConfigAt(t));
    if (rate <= 0.0) return;
    const sim::SimTime next = t + 1.0 / rate;
    if (next > horizon) return;
    if (next >= shard.phase_end) {
      shard.sim.ScheduleAt(next, [this, source] { WindowedSourceEmit(source); });
      return;
    }
    ++shard.inline_events;
    t = next;
  }
}

// ---------------------------------------------------------------------------
// Processor sharing
// ---------------------------------------------------------------------------

void StreamSimulation::AdvanceHost(HostState* host) {
  const sim::SimTime now = SimOfHost(host->id).now();
  const double dt = now - host->last_advance;
  host->last_advance = now;
  if (dt <= 0.0 || host->busy.empty()) return;
  const double share = host->capacity / static_cast<double>(host->busy.size());
  const double work = share * dt;
  for (Replica* replica : host->busy) {
    replica->remaining_cycles -= work;
    RecordReplicaCycles(replica, work, now);
  }
}

void StreamSimulation::RescheduleHost(HostState* host) {
  sim::Simulator& sim = SimOfHost(host->id);
  if (host->busy.empty()) {
    if (host->completion_event != sim::kInvalidEvent) {
      sim.Cancel(host->completion_event);
      host->completion_event = sim::kInvalidEvent;
      host->completion_target = nullptr;
    }
    return;
  }
  Replica* next = host->busy.front();
  for (Replica* replica : host->busy) {
    if (replica->remaining_cycles < next->remaining_cycles) next = replica;
  }
  const double share = host->capacity / static_cast<double>(host->busy.size());
  const double delay = std::max(0.0, next->remaining_cycles) / share;
  // One pooled service event per host, moved in place on every busy-set
  // change. A reschedule re-draws the tie-break sequence exactly like the
  // cancel + schedule it replaces, so firing order is unchanged.
  host->completion_target = next;
  const sim::SimTime when = sim.now() + delay;
  if (host->completion_event == sim::kInvalidEvent ||
      !sim.Reschedule(host->completion_event, when)) {
    host->completion_event =
        sim.ScheduleAt(when, [this, host] { HostCompletionEvent(host); });
  }
}

void StreamSimulation::HostCompletionEvent(HostState* host) {
  Replica* target = host->completion_target;
  host->completion_event = sim::kInvalidEvent;
  host->completion_target = nullptr;
  AdvanceHost(host);
  const double slack = host->capacity * kCompletionSlackSeconds;
  // Partition busy in place; the finished set lives in a per-shard scratch
  // vector reused across events. Callees only ever append to host->busy
  // (AddBusy) and never re-enter this handler, so both loops are safe.
  std::vector<Replica*>& finished = AccOfHost(host->id).finished_scratch;
  finished.clear();
  size_t kept = 0;
  for (Replica* replica : host->busy) {
    if (replica == target || replica->remaining_cycles <= slack) {
      finished.push_back(replica);
    } else {
      host->busy[kept++] = replica;
    }
  }
  host->busy.resize(kept);
  RescheduleHost(host);
  for (Replica* replica : finished) {
    replica->processing = false;
    replica->remaining_cycles = 0.0;
    FinishTuple(replica);
    TryStartProcessing(replica);
  }
}

void StreamSimulation::AddBusy(Replica* replica) {
  HostState* host = hosts_[static_cast<size_t>(replica->host)].get();
  AdvanceHost(host);
  host->busy.push_back(replica);
  RescheduleHost(host);
}

void StreamSimulation::RemoveBusy(Replica* replica) {
  HostState* host = hosts_[static_cast<size_t>(replica->host)].get();
  AdvanceHost(host);
  auto it = std::find(host->busy.begin(), host->busy.end(), replica);
  if (it != host->busy.end()) host->busy.erase(it);
  RescheduleHost(host);
}

// ---------------------------------------------------------------------------
// Operator mechanics
// ---------------------------------------------------------------------------

void StreamSimulation::DeliverToReplica(Replica* replica, int port_index,
                                        sim::SimTime birth, uint32_t span) {
  Shard& acc = AccOfHost(replica->host);
  const sim::SimTime now = SimOfHost(replica->host).now();
  ReplicaMetrics& rm =
      metrics_.replicas[static_cast<size_t>(replica->pe_id)][static_cast<size_t>(replica->index)];
  if (!replica->alive || !replica->active || replica->resyncing) {
    ++rm.tuples_ignored;
    if (!replica->alive) {
      // A crashed replica cannot buffer its input: the copy is gone.
      ++acc.crash_lost_tuples;
      acc.losses.Record(replica->pe_id, obs::LossCause::kCrashLoss);
      if (Tracing(obs::Category::kDrops)) {
        TupleInstant(acc, obs::EventName::kTupleCrashLoss, now, replica->pe_id,
                     replica->index, replica->host, port_index);
      }
    } else if (replica->resyncing) {
      // Alive and activated but still restoring state (§5.3 resync
      // latency): input during the gap is lost by this copy. Ledger-only —
      // resync gaps also occur in failure-free reconfiguration runs, so a
      // trace event here would perturb failure-free traces.
      ++acc.resync_lost_tuples;
      acc.losses.Record(replica->pe_id, obs::LossCause::kResyncGap);
    }
    // else: deactivated by the strategy — an intended discard, not a loss.
    return;
  }
  ++rm.tuples_arrived;
  Port& port = replica->ports[static_cast<size_t>(port_index)];
  if (options_.enable_load_shedding && port.capacity > 0) {
    // RED-style deterministic shedder: the shed fraction ramps from 0 at
    // the threshold occupancy to 1 at a full queue; a per-port credit
    // accumulator realizes the fraction without randomness.
    const double occupancy =
        static_cast<double>(port.queued) / static_cast<double>(port.capacity);
    const double ramp = 1.0 - options_.shed_threshold;
    const double fraction =
        ramp <= 0.0 ? (occupancy >= options_.shed_threshold ? 1.0 : 0.0)
                    : (occupancy - options_.shed_threshold) / ramp;
    if (fraction > 0.0) {
      port.shed_credit += std::min(fraction, 1.0);
      if (port.shed_credit >= 1.0) {
        port.shed_credit -= 1.0;
        ++rm.tuples_dropped;
        ++acc.dropped_tuples;
        ++acc.shed_tuples;
        acc.losses.Record(replica->pe_id, obs::LossCause::kLoadShed);
        if (Tracing(obs::Category::kDrops)) {
          TupleInstant(acc, obs::EventName::kTupleShed, now, replica->pe_id,
                       replica->index, replica->host, port_index);
        }
        if (span != 0) {
          options_.latency_tracer->RecordHop(span, obs::HopKind::kShed, now, 0.0,
                                             replica->pe_id, replica->index,
                                             replica->host, port_index);
        }
        return;
      }
    } else {
      port.shed_credit = 0.0;
    }
  }
  if (port.queued >= port.capacity) {
    ++rm.tuples_dropped;
    ++acc.dropped_tuples;
    acc.losses.Record(replica->pe_id, obs::LossCause::kQueueOverflow);
    if (Tracing(obs::Category::kDrops)) {
      TupleInstant(acc, obs::EventName::kTupleDrop, now, replica->pe_id, replica->index,
                   replica->host, port_index);
    }
    if (span != 0) {
      options_.latency_tracer->RecordHop(span, obs::HopKind::kDrop, now, 0.0,
                                         replica->pe_id, replica->index, replica->host,
                                         port_index);
    }
    return;
  }
  ++port.queued;
  if (port.queued > acc.max_queue_depth) acc.max_queue_depth = port.queued;
  if (!port.above_watermark && port.queued >= port.watermark) {
    port.above_watermark = true;
    if (Tracing(obs::Category::kQueues)) {
      TupleInstant(acc, obs::EventName::kQueueHighWatermark, now, replica->pe_id,
                   replica->index, replica->host, port_index,
                   static_cast<double>(port.queued));
    }
  }
  if (span != 0) {
    options_.latency_tracer->RecordHop(span, obs::HopKind::kEnqueue, now, 0.0,
                                       replica->pe_id, replica->index, replica->host,
                                       port_index);
  }
  replica->fifo.push_back(QueuedTuple{port_index, birth, now, span});
  TryStartProcessing(replica);
}

void StreamSimulation::TryStartProcessing(Replica* replica) {
  if (replica->processing || !replica->alive || !replica->active || replica->resyncing) {
    return;
  }
  if (replica->fifo.empty()) return;
  const QueuedTuple tuple = replica->fifo.front();
  replica->fifo.pop_front();
  Port& port = replica->ports[static_cast<size_t>(tuple.port)];
  --port.queued;
  if (port.above_watermark && port.queued * 2 <= port.watermark) {
    port.above_watermark = false;
  }
  const sim::SimTime now = SimOfHost(replica->host).now();
  replica->processing = true;
  replica->processing_port = tuple.port;
  replica->processing_birth = tuple.birth;
  replica->processing_start = now;
  replica->processing_span = tuple.span;
  if (tuple.span != 0) {
    options_.latency_tracer->RecordHop(tuple.span, obs::HopKind::kDequeue, now,
                                       now - tuple.enqueued, replica->pe_id,
                                       replica->index, replica->host, tuple.port);
  }
  replica->remaining_cycles = port.cpu_cost;
  if (port.cpu_cost <= 0.0) {
    // Zero-cost tuple: complete synchronously without touching the host.
    replica->processing = false;
    FinishTuple(replica);
    TryStartProcessing(replica);
    return;
  }
  AddBusy(replica);
}

void StreamSimulation::FinishTuple(Replica* replica) {
  Shard& acc = AccOfHost(replica->host);
  const sim::SimTime now = SimOfHost(replica->host).now();
  ReplicaMetrics& rm =
      metrics_.replicas[static_cast<size_t>(replica->pe_id)][static_cast<size_t>(replica->index)];
  ++rm.tuples_processed;
  PeState* pe = pes_[static_cast<size_t>(replica->pe_id)].get();
  const bool is_primary = pe->primary == replica->index;
  if (is_primary) {
    ++metrics_.pe_processed[static_cast<size_t>(replica->pe_id)];
  }
  if (Tracing(obs::Category::kSpans)) {
    TupleSpan(acc, obs::EventName::kProcessSpan, replica->processing_start,
              now - replica->processing_start, replica->pe_id, replica->index,
              replica->host, replica->processing_port);
  }
  const uint32_t span = replica->processing_span;
  replica->processing_span = 0;
  if (span != 0) {
    options_.latency_tracer->RecordHop(span, obs::HopKind::kProcess, now,
                                       now - replica->processing_start,
                                       replica->pe_id, replica->index, replica->host,
                                       replica->processing_port);
  }
  Port& port = replica->ports[static_cast<size_t>(replica->processing_port)];
  replica->processing_port = -1;
  // §5.2 footnote 3 selectivity semantics: an output tuple is produced for
  // every unit the per-port accumulator crosses.
  port.selectivity_acc += port.selectivity;
  const int emit = static_cast<int>(std::floor(port.selectivity_acc));
  port.selectivity_acc -= emit;
  if (emit > 0) {
    if (is_primary) {
      rm.tuples_emitted += static_cast<uint64_t>(emit);
      EmitFrom(replica, emit, replica->processing_birth, span);
    } else {
      // The replica produced output, but the proxy deduplicated it: only
      // the primary's copy went downstream (§5.1). If the seated primary is
      // unserviceable (dead, deactivated, or resyncing — the failover
      // window before re-election) there IS no primary copy: this output is
      // orphaned, and its downstream effect is lost. In failure-free runs
      // the seated primary is serviceable whenever a secondary finishes a
      // tuple, so this path cannot fire there.
      const bool primary_serviceable = [&] {
        if (pe->primary < 0) return false;
        const Replica& seated = pe->replicas[static_cast<size_t>(pe->primary)];
        return seated.alive && seated.active && !seated.resyncing;
      }();
      if (!primary_serviceable) {
        acc.orphaned_tuples += static_cast<uint64_t>(emit);
        acc.losses.Record(replica->pe_id, obs::LossCause::kOrphanedOutput,
                          static_cast<uint64_t>(emit));
        if (Tracing(obs::Category::kDrops)) {
          TupleInstant(acc, obs::EventName::kTupleOrphan, now, replica->pe_id,
                       replica->index, replica->host,
                       /*port=*/-1, static_cast<double>(emit));
        }
      }
      if (span != 0) {
        options_.latency_tracer->RecordHop(span, obs::HopKind::kSuppress, now, 0.0,
                                           replica->pe_id, replica->index, replica->host,
                                           /*port=*/-1);
      }
    }
  }
}

void StreamSimulation::EmitFrom(Replica* replica, int count, sim::SimTime birth,
                                uint32_t span) {
  PeState* pe = pes_[static_cast<size_t>(replica->pe_id)].get();
  Shard& acc = AccOfHost(replica->host);
  const sim::SimTime now = SimOfHost(replica->host).now();
  for (const Output& output : pe->outputs) {
    for (int i = 0; i < count; ++i) {
      if (output.is_sink) {
        if (windowed_) {
          // Sinks are off-host: the arrival is applied by the coordinator
          // at the delivery barrier, one to two link latencies from now
          // (sinks are external, so they always ride a factor-1 link).
          acc.sink_sealed.push_back(
              SinkMessage{replica->host, birth, acc.window_index + 2});
          continue;
        }
        ++metrics_.sink_tuples;
        metrics_.sink_series[BucketOf(now)] += 1.0;
        if (options_.record_latency) {
          metrics_.sink_latency.Add(now - birth);
        }
        if (span != 0) {
          // Arrival on the parent span: the tracer derives the end-to-end
          // latency from the root span's emission time.
          options_.latency_tracer->RecordHop(span, obs::HopKind::kSink, now, 0.0,
                                             output.to, replica->index, replica->host,
                                             /*port=*/-1);
        }
      } else {
        // Each delivered tuple is a new logical tuple: fork one child span
        // per (output, copy) so downstream hops keep their own path.
        uint32_t child = 0;
        if (span != 0) {
          child = options_.latency_tracer->Fork(span, replica->pe_id, now);
          if (child != 0) {
            options_.latency_tracer->RecordHop(child, obs::HopKind::kEmit, now, 0.0,
                                               replica->pe_id, replica->index,
                                               replica->host, output.port_index);
          }
        }
        PeState* downstream = pes_[static_cast<size_t>(output.to)].get();
        for (Replica& target : downstream->replicas) {
          if (windowed_ && target.host != replica->host) {
            // Every cross-host transfer rides the network, same-shard or
            // not — partitioning must not change which edges have latency.
            // The due barrier is `emit window + 1 + link factor`; uniform
            // topologies skip the factor lookup entirely.
            uint64_t due = acc.window_index + 2;
            if (!uniform_latency_) {
              due = acc.window_index + 1 +
                    host_pair_factor_[static_cast<size_t>(replica->host) * hosts_.size() +
                                      static_cast<size_t>(target.host)];
            }
            acc.outbox[static_cast<size_t>(
                           shard_of_host_[static_cast<size_t>(target.host)])]
                .push_back(NetMessage{target.host, replica->host, output.to,
                                      target.index, output.port_index, birth, due});
          } else {
            DeliverToReplica(&target, output.port_index, birth, child);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Replication control
// ---------------------------------------------------------------------------

void StreamSimulation::ElectPrimary(PeState* pe) {
  const int previous = pe->primary;
  pe->primary = -1;
  for (const Replica& replica : pe->replicas) {
    if (replica.alive && replica.active && !replica.resyncing) {
      pe->primary = replica.index;
      break;
    }
  }
  if (pe->primary != previous && pe->primary != -1 &&
      Tracing(obs::Category::kActivation)) {
    const Replica& elected = pe->replicas[static_cast<size_t>(pe->primary)];
    options_.trace_recorder->Instant(obs::EventName::kPrimaryElected, simulator_.now(),
                                     pe->id, pe->primary, elected.host, /*port=*/-1,
                                     static_cast<double>(pe->primary));
  }
}

void StreamSimulation::ApplyActivation(Replica* replica, bool active) {
  if (replica->active == active) return;
  ++metrics_.activation_switches;
  if (Tracing(obs::Category::kActivation)) {
    options_.trace_recorder->Instant(
        active ? obs::EventName::kReplicaActivate : obs::EventName::kReplicaDeactivate,
        simulator_.now(), replica->pe_id, replica->index, replica->host);
  }
  PeState* pe = pes_[static_cast<size_t>(replica->pe_id)].get();
  if (active) {
    // Reactivation: resynchronize state with an active replica before
    // processing resumes (§4.6).
    replica->active = true;
    replica->resyncing = true;
    const uint64_t epoch = ++replica->resync_epoch;
    simulator_.ScheduleAfter(options_.resync_latency_seconds, [this, replica, pe, epoch] {
      if (replica->resync_epoch != epoch || !replica->active) return;
      replica->resyncing = false;
      if (replica->alive && pe->primary == -1) ElectPrimary(pe);
      TryStartProcessing(replica);
    });
  } else {
    // Deactivation is immediate: stop processing, discard buffered input
    // (state will be re-synced on reactivation).
    replica->active = false;
    ++replica->resync_epoch;  // invalidate pending resync completions
    replica->resyncing = false;
    if (replica->processing) {
      RemoveBusy(replica);
      replica->processing = false;
      replica->remaining_cycles = 0.0;
      replica->processing_port = -1;
      replica->processing_span = 0;
    }
    replica->fifo.clear();
    for (Port& port : replica->ports) {
      port.queued = 0;
      port.selectivity_acc = 0.0;
      port.above_watermark = false;
    }
    if (pe->primary == replica->index) ElectPrimary(pe);
  }
}

void StreamSimulation::ApplyConfig(model::ConfigId config) {
  if (config == applied_config_) return;
  applied_config_ = config;
  if (Tracing(obs::Category::kConfig)) {
    options_.trace_recorder->Instant(obs::EventName::kConfigApplied, simulator_.now(),
                                     /*pe=*/-1, /*replica=*/-1, /*host=*/-1, /*port=*/-1,
                                     static_cast<double>(config));
  }
  for (auto& pe : pes_) {
    if (pe == nullptr) continue;
    for (Replica& replica : pe->replicas) {
      ApplyActivation(&replica, strategy_.IsActive(pe->id, replica.index, config));
    }
    if (pe->primary == -1) ElectPrimary(pe.get());
  }
}

// ---------------------------------------------------------------------------
// Middleware: Rate Monitor + HAController
// ---------------------------------------------------------------------------

void StreamSimulation::MonitorTick() {
  std::vector<double> measured(sources_.size(), 0.0);
  for (size_t i = 0; i < sources_.size(); ++i) {
    SourceState* source = sources_[i].get();
    const uint64_t count = source->emitted - source->monitor_snapshot;
    source->monitor_snapshot = source->emitted;
    const double adjusted =
        std::max(0.0, static_cast<double>(count) - options_.monitor_tolerance_tuples);
    measured[source->source_index] = adjusted / kMonitorPeriodSeconds;
  }
  Result<model::ConfigId> config = config_index_.Lookup(measured);
  if (config.ok() && *config != applied_config_) {
    const model::ConfigId target = *config;
    if (Tracing(obs::Category::kConfig)) {
      options_.trace_recorder->Instant(obs::EventName::kControlDecision, simulator_.now(),
                                       /*pe=*/-1, /*replica=*/-1, /*host=*/-1,
                                       /*port=*/-1, static_cast<double>(target));
    }
    simulator_.ScheduleAfter(kControlLatencySeconds,
                             [this, target] { ApplyConfig(target); });
  }
  if (simulator_.now() + kMonitorPeriodSeconds <= trace_.TotalDuration()) {
    simulator_.ScheduleAfter(kMonitorPeriodSeconds, [this] { MonitorTick(); });
  }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void StreamSimulation::TelemetryTick() {
  TelemetryState* t = telemetry_.get();
  const sim::SimTime now = simulator_.now();
  const double dt = now - t->prev_time;
  if (dt > 0.0) {
    // Running totals live partly in per-shard accumulators until the
    // end-of-run fold; the tick sums them (shards are parked at stop
    // points, so the reads are safe and partition-invariant).
    uint64_t source_total = metrics_.source_tuples;
    uint64_t dropped_total = metrics_.dropped_tuples;
    size_t pending_total = simulator_.pending_events();
    for (const auto& shard : shards_) {
      source_total += shard->source_tuples;
      dropped_total += shard->dropped_tuples;
      pending_total += shard->sim.pending_events();
    }
    auto rate = [dt](uint64_t current, uint64_t previous) {
      return static_cast<double>(current - previous) / dt;
    };
    if (t->source_rate != nullptr) {
      t->source_rate->Append(now, rate(source_total, t->prev_source));
    }
    if (t->output_rate != nullptr) {
      t->output_rate->Append(now, rate(metrics_.sink_tuples, t->prev_sink));
    }
    if (t->drop_rate != nullptr) {
      t->drop_rate->Append(now, rate(dropped_total, t->prev_dropped));
    }
    for (size_t h = 0; h < hosts_.size(); ++h) {
      if (t->host_util[h] == nullptr) continue;
      const HostState& host = *hosts_[h];
      // Non-mutating estimate of the cycles consumed so far: the recorded
      // total plus the in-flight integration interval. AdvanceHost runs on
      // every busy-set change, so since `last_advance` the host has been
      // either fully busy or fully idle — calling AdvanceHost here instead
      // would split the processor-sharing FP integration at sample times
      // and perturb the very run being observed.
      const double cycles =
          metrics_.host_cycles[h] +
          (host.busy.empty() ? 0.0 : host.capacity * (now - host.last_advance));
      const double util =
          host.capacity > 0.0 ? (cycles - t->prev_host_cycles[h]) / (host.capacity * dt)
                              : 0.0;
      t->host_util[h]->Append(now, util);
      t->prev_host_cycles[h] = cycles;
    }
    for (size_t c = 0; c < pes_.size(); ++c) {
      if (t->queue_depth[c] == nullptr || pes_[c] == nullptr) continue;
      size_t queued = 0;
      for (const Replica& replica : pes_[c]->replicas) {
        for (const Port& port : replica.ports) queued += port.queued;
      }
      t->queue_depth[c]->Append(now, static_cast<double>(queued));
    }
    if (t->pending_events != nullptr) {
      t->pending_events->Append(now, static_cast<double>(pending_total));
    }
    t->prev_time = now;
    t->prev_source = source_total;
    t->prev_sink = metrics_.sink_tuples;
    t->prev_dropped = dropped_total;
  }
  if (now + t->period <= trace_.TotalDuration()) {
    simulator_.ScheduleAfter(t->period, [this] { TelemetryTick(); });
  }
}

// ---------------------------------------------------------------------------
// Sources and failures
// ---------------------------------------------------------------------------

void StreamSimulation::SourceEmit(SourceState* source) {
  for (;;) {
    ++source->emitted;
    ++metrics_.source_tuples;
    metrics_.source_series[BucketOf(simulator_.now())] += 1.0;
    // Sampling decision at the source: a pure function of (seed, source,
    // emission index), so it is identical however this emission interleaves
    // with the rest of the run.
    const uint32_t root = LatencyTracing()
                              ? options_.latency_tracer->SampleRoot(source->id,
                                                                    simulator_.now())
                              : 0;
    for (const Output& output : source->outputs) {
      if (output.is_sink) {
        ++metrics_.sink_tuples;
        metrics_.sink_series[BucketOf(simulator_.now())] += 1.0;
        if (options_.record_latency) metrics_.sink_latency.Add(0.0);
        if (root != 0) {
          options_.latency_tracer->RecordHop(root, obs::HopKind::kSink, simulator_.now(),
                                             0.0, output.to, /*replica=*/-1, /*host=*/-1,
                                             /*port=*/-1);
        }
      } else {
        PeState* downstream = pes_[static_cast<size_t>(output.to)].get();
        for (Replica& target : downstream->replicas) {
          DeliverToReplica(&target, output.port_index, simulator_.now(), root);
        }
      }
    }
    const double rate =
        app_.input_space.RateOf(source->source_index, trace_.ConfigAt(simulator_.now()));
    if (rate <= 0.0) return;
    const sim::SimTime next = simulator_.now() + 1.0 / rate;
    if (next > trace_.TotalDuration()) return;
    // Batched emission: while this source's next tuple strictly precedes
    // every other pending event, drain it inline instead of paying a heap
    // round-trip per tuple. A tie defers to the pending event — it was
    // scheduled earlier and would win the (time, sequence) tie-break — and
    // AdvanceInline keeps time, event counts, and the backlog-sample
    // cadence identical to the unbatched schedule-then-pop.
    sim::SimTime pending_at;
    if (simulator_.NextEventTime(&pending_at) && next >= pending_at) {
      simulator_.ScheduleAt(next, [this, source] { SourceEmit(source); });
      return;
    }
    simulator_.AdvanceInline(next);
  }
}

void StreamSimulation::CrashHost(model::HostId host, sim::SimTime duration) {
  if (Tracing(obs::Category::kFailures)) {
    options_.trace_recorder->Instant(obs::EventName::kHostCrash, simulator_.now(),
                                     /*pe=*/-1, /*replica=*/-1, host, /*port=*/-1,
                                     duration);
  }
  metrics_.crashed_hosts.push_back(host);
  HostState* host_state = hosts_[static_cast<size_t>(host)].get();
  // Overlapping windows merge: the host stays down until the farthest end
  // seen so far, and only the recovery timer armed by the newest crash
  // (greatest epoch) is honoured — the others fire into a superseded
  // window and must not revive anything early.
  const uint64_t epoch = ++host_state->crash_epoch;
  host_state->down_until =
      std::max(host_state->down_until, simulator_.now() + duration);
  for (auto& pe : pes_) {
    if (pe == nullptr) continue;
    for (Replica& replica : pe->replicas) {
      if (replica.host != host || !replica.alive) continue;
      replica.alive = false;
      if (Tracing(obs::Category::kFailures)) {
        options_.trace_recorder->Instant(obs::EventName::kReplicaCrash, simulator_.now(),
                                         replica.pe_id, replica.index, replica.host);
      }
      ++replica.resync_epoch;
      replica.resyncing = false;
      if (replica.processing) {
        RemoveBusy(&replica);
        replica.processing = false;
        replica.remaining_cycles = 0.0;
        replica.processing_port = -1;
        replica.processing_span = 0;
      }
      replica.fifo.clear();
      for (Port& port : replica.ports) {
        port.queued = 0;
        port.selectivity_acc = 0.0;
        port.above_watermark = false;
      }
      if (pe->primary == replica.index) {
        // The dead primary is only replaced once heartbeat loss is
        // detected (§5.1) — downstream output stalls in between. Re-elect
        // whenever the seated primary is not *serviceable* (alive, active,
        // resynced): checking liveness alone let a crashed-then-recovered
        // primary, still resyncing, block the election of a healthy
        // secondary and silence the PE for the rest of the resync.
        PeState* pe_ptr = pe.get();
        simulator_.ScheduleAfter(kFailoverLatencySeconds, [this, pe_ptr] {
          const int current = pe_ptr->primary;
          if (current != -1) {
            const Replica& seated = pe_ptr->replicas[static_cast<size_t>(current)];
            if (seated.alive && seated.active && !seated.resyncing) return;
          }
          ElectPrimary(pe_ptr);
        });
      }
    }
  }
  simulator_.ScheduleAfter(host_state->down_until - simulator_.now(),
                           [this, host, epoch] { RecoverHost(host, epoch); });
}

void StreamSimulation::RecoverHost(model::HostId host, uint64_t crash_epoch) {
  HostState* host_state = hosts_[static_cast<size_t>(host)].get();
  // A stale timer from a crash window that a later crash superseded; the
  // newest crash scheduled its own timer at the merged window's end.
  if (host_state->crash_epoch != crash_epoch) return;
  if (Tracing(obs::Category::kFailures)) {
    options_.trace_recorder->Instant(obs::EventName::kHostRecover, simulator_.now(),
                                     /*pe=*/-1, /*replica=*/-1, host);
  }
  for (auto& pe : pes_) {
    if (pe == nullptr) continue;
    PeState* pe_ptr = pe.get();
    for (Replica& replica : pe->replicas) {
      if (replica.host != host || replica.alive || replica.permanently_failed) continue;
      replica.alive = true;
      if (Tracing(obs::Category::kFailures)) {
        options_.trace_recorder->Instant(obs::EventName::kReplicaRecover,
                                         simulator_.now(), replica.pe_id, replica.index,
                                         replica.host);
      }
      // Rejoin with the activation state the controller currently expects,
      // after a state resync (recovered replicas come back as secondaries).
      replica.active = strategy_.IsActive(pe->id, replica.index, applied_config_);
      if (!replica.active) continue;
      replica.resyncing = true;
      const uint64_t epoch = ++replica.resync_epoch;
      Replica* replica_ptr = &replica;
      simulator_.ScheduleAfter(options_.resync_latency_seconds,
                               [this, replica_ptr, pe_ptr, epoch] {
                                 if (replica_ptr->resync_epoch != epoch) return;
                                 replica_ptr->resyncing = false;
                                 if (pe_ptr->primary == -1) ElectPrimary(pe_ptr);
                                 TryStartProcessing(replica_ptr);
                               });
    }
  }
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

size_t StreamSimulation::BucketOf(sim::SimTime t) const {
  const auto bucket = static_cast<size_t>(t / metrics_.bucket_seconds);
  return std::min(bucket, metrics_.sink_series.size() - 1);
}

bool StreamSimulation::Tracing(obs::Category category) const {
  return options_.trace_recorder != nullptr && options_.trace_recorder->Wants(category);
}

bool StreamSimulation::LatencyTracing() const {
  return options_.latency_tracer != nullptr && options_.latency_tracer->enabled();
}

void StreamSimulation::RecordReplicaCycles(Replica* replica, double cycles,
                                           sim::SimTime now) {
  metrics_.replicas[static_cast<size_t>(replica->pe_id)][static_cast<size_t>(replica->index)]
      .cpu_cycles += cycles;
  metrics_.host_cycles[static_cast<size_t>(replica->host)] += cycles;
  if (options_.record_replica_series) {
    metrics_.replica_series[static_cast<size_t>(replica->pe_id)]
                           [static_cast<size_t>(replica->index)][BucketOf(now)] += cycles;
  }
}

}  // namespace laar::dsps
