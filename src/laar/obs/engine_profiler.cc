#include "laar/obs/engine_profiler.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "laar/common/strings.h"
#include "laar/obs/metrics_registry.h"

namespace laar::obs {
namespace {

/// FNV-1a over the little-endian bytes of a u64 series — the digest that
/// stands in for the full per-window array in serialized profiles.
uint64_t Fnv1aU64Series(const std::vector<uint64_t>& series) {
  uint64_t hash = 1469598103934665603ull;
  for (uint64_t value : series) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

constexpr int kHistogramBuckets = 16;

/// log2 bucket index: 0 holds zero, bucket k holds [2^(k-1), 2^k), the last
/// bucket is open-ended.
int Log2Bucket(uint64_t value) {
  if (value == 0) return 0;
  int bucket = 1;
  while (value > 1 && bucket < kHistogramBuckets - 1) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

/// Serializes min/max/mean + digest for a per-window series; the raw array
/// is deliberately not serialized (web-scale runs have 100k+ windows).
json::Value SeriesSummaryJson(const std::vector<uint64_t>& series,
                              bool with_histogram) {
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t sum = 0;
  if (!series.empty()) {
    min = series.front();
    for (uint64_t value : series) {
      min = std::min(min, value);
      max = std::max(max, value);
      sum += value;
    }
  }
  json::Value out = json::Value::MakeObject();
  out.Set("count", json::Value::Int(static_cast<int64_t>(series.size())));
  out.Set("min", json::Value::Int(static_cast<int64_t>(min)));
  out.Set("max", json::Value::Int(static_cast<int64_t>(max)));
  out.Set("sum", json::Value::Int(static_cast<int64_t>(sum)));
  out.Set("mean", json::Value::Number(
                      series.empty()
                          ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(series.size())));
  out.Set("fnv1a",
          json::Value::String(StrFormat(
              "0x%016llx",
              static_cast<unsigned long long>(Fnv1aU64Series(series)))));
  if (with_histogram) {
    std::vector<int64_t> buckets(kHistogramBuckets, 0);
    for (uint64_t value : series) ++buckets[static_cast<size_t>(Log2Bucket(value))];
    json::Value histogram = json::Value::MakeArray();
    for (int64_t count : buckets) histogram.Append(json::Value::Int(count));
    out.Set("histogram_log2", std::move(histogram));
  }
  return out;
}

uint64_t GetU64Field(const json::Value& object, const char* key) {
  const json::Value fallback = json::Value::Int(0);
  Result<int64_t> value = object.GetOr(key, fallback).AsInt();
  return value.ok() && *value >= 0 ? static_cast<uint64_t>(*value) : 0;
}

double GetDoubleField(const json::Value& object, const char* key) {
  const json::Value fallback = json::Value::Number(0.0);
  Result<double> value = object.GetOr(key, fallback).AsDouble();
  return value.ok() ? *value : 0.0;
}

}  // namespace

uint64_t EngineProfile::ShardEventTotal() const {
  uint64_t total = 0;
  for (uint64_t events : shard_events) total += events;
  for (uint64_t events : shard_inline_events) total += events;
  return total;
}

uint64_t EngineProfile::TrafficTuplesTotal() const {
  uint64_t total = 0;
  for (const std::vector<uint64_t>& row : traffic_tuples)
    for (uint64_t tuples : row) total += tuples;
  return total;
}

uint64_t EngineProfile::CrossShardTuples() const {
  uint64_t total = 0;
  for (size_t src = 0; src < traffic_tuples.size(); ++src)
    for (size_t dst = 0; dst < traffic_tuples[src].size(); ++dst)
      if (src != dst) total += traffic_tuples[src][dst];
  return total;
}

double EngineProfile::EmptyWindowFraction() const {
  if (windows == 0) return 0.0;
  return static_cast<double>(empty_windows) / static_cast<double>(windows);
}

double EngineProfile::ImbalanceRatio() const {
  if (shard_events.empty()) return 0.0;
  uint64_t hottest = 0;
  uint64_t total = 0;
  for (size_t shard = 0; shard < shard_events.size(); ++shard) {
    const uint64_t events =
        shard_events[shard] +
        (shard < shard_inline_events.size() ? shard_inline_events[shard] : 0);
    hottest = std::max(hottest, events);
    total += events;
  }
  if (total == 0) return 0.0;
  const double ideal =
      static_cast<double>(total) / static_cast<double>(shard_events.size());
  return static_cast<double>(hottest) / ideal;
}

double EngineProfile::SyncOverheadFraction() const {
  if (loop_wall_seconds <= 0.0) return 0.0;
  const double overhead = loop_wall_seconds - critical_path_seconds;
  return std::max(0.0, overhead / loop_wall_seconds);
}

double EngineProfile::UtilizationOf(int shard) const {
  if (loop_wall_seconds <= 0.0 || shard < 0 ||
      static_cast<size_t>(shard) >= shard_execute_seconds.size()) {
    return 0.0;
  }
  return shard_execute_seconds[static_cast<size_t>(shard)] / loop_wall_seconds;
}

Status EngineProfile::ReconcileEvents() const {
  uint64_t total = control_events;
  for (size_t shard = 0; shard < shard_events.size(); ++shard) {
    total += shard_events[shard];
    if (shard < shard_inline_events.size()) total += shard_inline_events[shard];
  }
  if (total != engine_events) {
    return Status::Internal(StrFormat(
        "engine profile does not close: control (%llu) + shard events (%llu) "
        "= %llu, but engine_events = %llu",
        static_cast<unsigned long long>(control_events),
        static_cast<unsigned long long>(total - control_events),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(engine_events)));
  }
  // In-memory profiles carry the per-window series; a serialized round trip
  // keeps only its summary, so the window-sum closure is checked only when
  // the series is actually present.
  if (!window_events.empty() || windows == 0) {
    uint64_t window_sum = 0;
    for (uint64_t events : window_events) window_sum += events;
    if (window_sum != ShardEventTotal()) {
      return Status::Internal(StrFormat(
          "window accounting does not close: sum of per-window events (%llu) "
          "!= shard event total (%llu)",
          static_cast<unsigned long long>(window_sum),
          static_cast<unsigned long long>(ShardEventTotal())));
    }
  }
  return Status::OK();
}

json::Value EngineProfile::DeterministicAggregateJson() const {
  uint64_t inline_total = 0;
  for (uint64_t events : shard_inline_events) inline_total += events;
  uint64_t heap_total = 0;
  for (uint64_t events : shard_events) heap_total += events;
  const uint64_t net_tuples = TrafficTuplesTotal();

  json::Value out = json::Value::MakeObject();
  out.Set("schema", json::Value::String("laar-engine-profile-aggregate-v1"));
  out.Set("window_seconds", json::Value::Number(window_seconds));
  out.Set("windows", json::Value::Int(static_cast<int64_t>(windows)));
  out.Set("empty_windows",
          json::Value::Int(static_cast<int64_t>(empty_windows)));
  out.Set("empty_window_fraction", json::Value::Number(EmptyWindowFraction()));
  out.Set("engine_events", json::Value::Int(static_cast<int64_t>(engine_events)));
  out.Set("control_events",
          json::Value::Int(static_cast<int64_t>(control_events)));
  out.Set("inline_events", json::Value::Int(static_cast<int64_t>(inline_total)));
  out.Set("shard_heap_events",
          json::Value::Int(static_cast<int64_t>(heap_total)));
  out.Set("net_tuples", json::Value::Int(static_cast<int64_t>(net_tuples)));
  out.Set("net_bytes", json::Value::Int(static_cast<int64_t>(
                           net_tuples * kNetMessageWireBytes)));
  out.Set("barrier_sink_tuples",
          json::Value::Int(static_cast<int64_t>(barrier_sink_tuples)));
  out.Set("max_host_inbox_backlog",
          json::Value::Int(static_cast<int64_t>(max_host_inbox_backlog)));
  out.Set("window_events", SeriesSummaryJson(window_events, true));
  out.Set("window_net_tuples", SeriesSummaryJson(window_net_tuples, false));
  return out;
}

json::Value EngineProfile::ToJson() const {
  json::Value deterministic = json::Value::MakeObject();
  deterministic.Set("shards", json::Value::Int(shards));
  deterministic.Set("imbalance_ratio", json::Value::Number(ImbalanceRatio()));
  deterministic.Set("cross_shard_tuples",
                    json::Value::Int(static_cast<int64_t>(CrossShardTuples())));
  deterministic.Set(
      "cross_shard_bytes",
      json::Value::Int(
          static_cast<int64_t>(CrossShardTuples() * kNetMessageWireBytes)));
  deterministic.Set("dispatch_rounds",
                    json::Value::Int(static_cast<int64_t>(dispatch_rounds)));
  deterministic.Set("aggregate", DeterministicAggregateJson());

  json::Value per_shard = json::Value::MakeArray();
  for (size_t shard = 0; shard < shard_events.size(); ++shard) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("shard", json::Value::Int(static_cast<int64_t>(shard)));
    entry.Set("events",
              json::Value::Int(static_cast<int64_t>(shard_events[shard])));
    entry.Set("inline_events",
              json::Value::Int(static_cast<int64_t>(
                  shard < shard_inline_events.size()
                      ? shard_inline_events[shard]
                      : 0)));
    entry.Set("max_inbox_backlog",
              json::Value::Int(static_cast<int64_t>(
                  shard < shard_max_inbox.size() ? shard_max_inbox[shard]
                                                 : 0)));
    per_shard.Append(std::move(entry));
  }
  deterministic.Set("per_shard", std::move(per_shard));

  json::Value matrix = json::Value::MakeObject();
  matrix.Set("wire_bytes_per_tuple",
             json::Value::Int(static_cast<int64_t>(kNetMessageWireBytes)));
  json::Value rows = json::Value::MakeArray();
  for (const std::vector<uint64_t>& row : traffic_tuples) {
    json::Value cells = json::Value::MakeArray();
    for (uint64_t tuples : row)
      cells.Append(json::Value::Int(static_cast<int64_t>(tuples)));
    rows.Append(std::move(cells));
  }
  matrix.Set("tuples", std::move(rows));
  deterministic.Set("traffic_matrix", std::move(matrix));

  json::Value measured = json::Value::MakeObject();
  measured.Set("runner_workers", json::Value::Int(runner_workers));
  measured.Set("phases", json::Value::Int(static_cast<int64_t>(phases)));
  measured.Set("loop_wall_seconds", json::Value::Number(loop_wall_seconds));
  measured.Set("phase_wall_seconds", json::Value::Number(phase_wall_seconds));
  measured.Set("critical_path_seconds",
               json::Value::Number(critical_path_seconds));
  measured.Set("sync_overhead_fraction",
               json::Value::Number(SyncOverheadFraction()));
  json::Value measured_shards = json::Value::MakeArray();
  for (size_t shard = 0; shard < shard_execute_seconds.size(); ++shard) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("shard", json::Value::Int(static_cast<int64_t>(shard)));
    entry.Set("execute_seconds",
              json::Value::Number(shard_execute_seconds[shard]));
    entry.Set("stall_seconds",
              json::Value::Number(shard < shard_stall_seconds.size()
                                      ? shard_stall_seconds[shard]
                                      : 0.0));
    entry.Set("utilization",
              json::Value::Number(UtilizationOf(static_cast<int>(shard))));
    measured_shards.Append(std::move(entry));
  }
  measured.Set("per_shard", std::move(measured_shards));
  json::Value records = json::Value::MakeArray();
  for (const PhaseRecord& record : phase_records) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("sim_begin", json::Value::Number(record.sim_begin));
    entry.Set("sim_end", json::Value::Number(record.sim_end));
    entry.Set("wall_seconds", json::Value::Number(record.wall_seconds));
    json::Value execs = json::Value::MakeArray();
    for (double seconds : record.execute_seconds)
      execs.Append(json::Value::Number(seconds));
    entry.Set("execute_seconds", std::move(execs));
    records.Append(std::move(entry));
  }
  measured.Set("phase_records", std::move(records));
  measured.Set("phase_records_truncated",
               json::Value::Bool(phase_records_truncated));

  json::Value out = json::Value::MakeObject();
  out.Set("schema", json::Value::String("laar-engine-profile-v1"));
  out.Set("deterministic", std::move(deterministic));
  out.Set("measured", std::move(measured));
  return out;
}

Result<EngineProfile> EngineProfile::FromJson(const json::Value& value) {
  const json::Value empty_string = json::Value::String("");
  Result<std::string> schema = value.GetOr("schema", empty_string).AsString();
  if (!schema.ok() || *schema != "laar-engine-profile-v1") {
    return Status::InvalidArgument(
        "not an engine profile (expected schema laar-engine-profile-v1)");
  }
  Result<const json::Value*> deterministic = value.Get("deterministic");
  if (!deterministic.ok()) return deterministic.status();
  Result<const json::Value*> measured = value.Get("measured");
  if (!measured.ok()) return measured.status();
  Result<const json::Value*> aggregate = (*deterministic)->Get("aggregate");
  if (!aggregate.ok()) return aggregate.status();

  EngineProfile profile;
  profile.shards = static_cast<int>(GetU64Field(**deterministic, "shards"));
  profile.dispatch_rounds = GetU64Field(**deterministic, "dispatch_rounds");
  profile.window_seconds = GetDoubleField(**aggregate, "window_seconds");
  profile.windows = GetU64Field(**aggregate, "windows");
  profile.empty_windows = GetU64Field(**aggregate, "empty_windows");
  profile.engine_events = GetU64Field(**aggregate, "engine_events");
  profile.control_events = GetU64Field(**aggregate, "control_events");
  profile.barrier_sink_tuples = GetU64Field(**aggregate, "barrier_sink_tuples");
  profile.max_host_inbox_backlog =
      GetU64Field(**aggregate, "max_host_inbox_backlog");

  const json::Value empty_array = json::Value::MakeArray();
  for (const json::Value& entry :
       (*deterministic)->GetOr("per_shard", empty_array).array()) {
    profile.shard_events.push_back(GetU64Field(entry, "events"));
    profile.shard_inline_events.push_back(GetU64Field(entry, "inline_events"));
    profile.shard_max_inbox.push_back(GetU64Field(entry, "max_inbox_backlog"));
  }
  const json::Value empty_object = json::Value::MakeObject();
  for (const json::Value& row : (*deterministic)
                                    ->GetOr("traffic_matrix", empty_object)
                                    .GetOr("tuples", empty_array)
                                    .array()) {
    std::vector<uint64_t> cells;
    for (const json::Value& cell : row.array()) {
      Result<int64_t> tuples = cell.AsInt();
      cells.push_back(tuples.ok() && *tuples >= 0
                          ? static_cast<uint64_t>(*tuples)
                          : 0);
    }
    profile.traffic_tuples.push_back(std::move(cells));
  }

  profile.runner_workers =
      static_cast<int>(GetU64Field(**measured, "runner_workers"));
  profile.phases = GetU64Field(**measured, "phases");
  profile.loop_wall_seconds = GetDoubleField(**measured, "loop_wall_seconds");
  profile.phase_wall_seconds = GetDoubleField(**measured, "phase_wall_seconds");
  profile.critical_path_seconds =
      GetDoubleField(**measured, "critical_path_seconds");
  for (const json::Value& entry :
       (*measured)->GetOr("per_shard", empty_array).array()) {
    profile.shard_execute_seconds.push_back(
        GetDoubleField(entry, "execute_seconds"));
    profile.shard_stall_seconds.push_back(
        GetDoubleField(entry, "stall_seconds"));
  }
  for (const json::Value& entry :
       (*measured)->GetOr("phase_records", empty_array).array()) {
    PhaseRecord record;
    record.sim_begin = GetDoubleField(entry, "sim_begin");
    record.sim_end = GetDoubleField(entry, "sim_end");
    record.wall_seconds = GetDoubleField(entry, "wall_seconds");
    for (const json::Value& seconds :
         entry.GetOr("execute_seconds", empty_array).array()) {
      Result<double> parsed = seconds.AsDouble();
      record.execute_seconds.push_back(parsed.ok() ? *parsed : 0.0);
    }
    profile.phase_records.push_back(std::move(record));
  }
  const json::Value false_value = json::Value::Bool(false);
  Result<bool> truncated =
      (*measured)->GetOr("phase_records_truncated", false_value).AsBool();
  profile.phase_records_truncated = truncated.ok() && *truncated;
  return profile;
}

void EngineProfiler::Configure(int shards, double window_seconds) {
  profile_ = EngineProfile();
  profile_.shards = shards < 1 ? 1 : shards;
  profile_.window_seconds = window_seconds;
  const size_t count = static_cast<size_t>(profile_.shards);
  profile_.shard_events.assign(count, 0);
  profile_.shard_inline_events.assign(count, 0);
  profile_.shard_max_inbox.assign(count, 0);
  profile_.traffic_tuples.assign(count, std::vector<uint64_t>(count, 0));
  profile_.shard_execute_seconds.assign(count, 0.0);
  profile_.shard_stall_seconds.assign(count, 0.0);
}

void EngineProfiler::RecordWindow(uint64_t total_events, uint64_t net_tuples,
                                  double end_time) {
  ++profile_.windows;
  if (total_events == 0) ++profile_.empty_windows;
  profile_.window_events.push_back(total_events);
  profile_.window_net_tuples.push_back(net_tuples);
  profile_.window_end_times.push_back(end_time);
}

void EngineProfiler::RecordTraffic(int src, int dst, uint64_t tuples) {
  if (src < 0 || dst < 0 ||
      static_cast<size_t>(src) >= profile_.traffic_tuples.size() ||
      static_cast<size_t>(dst) >= profile_.traffic_tuples.size()) {
    return;
  }
  profile_.traffic_tuples[static_cast<size_t>(src)][static_cast<size_t>(dst)] +=
      tuples;
}

void EngineProfiler::RecordBarrierSinkTuples(uint64_t tuples) {
  profile_.barrier_sink_tuples += tuples;
}

void EngineProfiler::SetShardTotals(int shard, uint64_t events,
                                    uint64_t inline_events, uint64_t max_inbox,
                                    uint64_t max_host_backlog) {
  if (shard < 0 || static_cast<size_t>(shard) >= profile_.shard_events.size())
    return;
  const size_t index = static_cast<size_t>(shard);
  profile_.shard_events[index] = events;
  profile_.shard_inline_events[index] = inline_events;
  profile_.shard_max_inbox[index] = max_inbox;
  profile_.max_host_inbox_backlog =
      std::max(profile_.max_host_inbox_backlog, max_host_backlog);
}

void EngineProfiler::SetControlEvents(uint64_t events) {
  profile_.control_events = events;
}

void EngineProfiler::SetEngineEvents(uint64_t events) {
  profile_.engine_events = events;
}

void EngineProfiler::SetDispatchRounds(uint64_t rounds) {
  profile_.dispatch_rounds = rounds;
}

void EngineProfiler::SetRunnerWorkers(int workers) {
  profile_.runner_workers = workers;
}

void EngineProfiler::BeginPhase(double sim_begin, double sim_end) {
  pending_sim_begin_ = sim_begin;
  pending_sim_end_ = sim_end;
}

void EngineProfiler::OnPhaseTiming(
    double phase_seconds, const std::vector<double>& execute_seconds) {
  ++profile_.phases;
  profile_.phase_wall_seconds += phase_seconds;
  // With a single executor the runner serializes the phase (see the
  // ShardRunner::PhaseObserver contract): `phase - execute[s]` is the other
  // shards' execute time, not barrier wait, so stall stays zero and the
  // critical path is the whole serial sweep rather than the slowest shard.
  const bool serial = profile_.runner_workers == 1;
  double slowest = 0.0;
  double executed = 0.0;
  for (size_t shard = 0; shard < execute_seconds.size(); ++shard) {
    const double execute = execute_seconds[shard];
    slowest = std::max(slowest, execute);
    executed += execute;
    if (shard < profile_.shard_execute_seconds.size()) {
      profile_.shard_execute_seconds[shard] += execute;
      // The worker's interval nests inside the coordinator's, so this is
      // non-negative by construction; clamp anyway against clock quirks.
      if (!serial) {
        profile_.shard_stall_seconds[shard] +=
            std::max(0.0, phase_seconds - execute);
      }
    }
  }
  profile_.critical_path_seconds += serial ? executed : slowest;
  if (profile_.phase_records.size() < max_phase_records_) {
    EngineProfile::PhaseRecord record;
    record.sim_begin = pending_sim_begin_;
    record.sim_end = pending_sim_end_;
    record.wall_seconds = phase_seconds;
    record.execute_seconds = execute_seconds;
    profile_.phase_records.push_back(std::move(record));
  } else {
    profile_.phase_records_truncated = true;
  }
}

void EngineProfiler::SetLoopWallSeconds(double seconds) {
  profile_.loop_wall_seconds = seconds;
}

void PublishProfile(MetricsRegistry* registry, const EngineProfile& profile) {
  if (registry == nullptr) return;
  uint64_t inline_total = 0;
  for (uint64_t events : profile.shard_inline_events) inline_total += events;
  uint64_t heap_total = 0;
  for (uint64_t events : profile.shard_events) heap_total += events;
  const uint64_t net_tuples = profile.TrafficTuplesTotal();
  const auto count = [registry](const char* name, uint64_t value) {
    registry->GetCounter(name)->Increment(static_cast<double>(value));
  };
  count("prof_windows", profile.windows);
  count("prof_empty_windows", profile.empty_windows);
  count("prof_engine_events", profile.engine_events);
  count("prof_control_events", profile.control_events);
  count("prof_inline_events", inline_total);
  count("prof_shard_heap_events", heap_total);
  count("prof_net_tuples", net_tuples);
  count("prof_net_bytes", net_tuples * kNetMessageWireBytes);
  count("prof_barrier_sink_tuples", profile.barrier_sink_tuples);
  registry->GetGauge("prof_max_host_inbox_backlog")
      ->Set(static_cast<double>(profile.max_host_inbox_backlog));
  registry->GetGauge("prof_empty_window_fraction")
      ->Set(profile.EmptyWindowFraction());
}

void AppendRunnerTrack(json::Value* chrome_trace,
                       const EngineProfile& profile) {
  if (chrome_trace == nullptr || !chrome_trace->is_object()) return;
  if (profile.phases == 0 && profile.windows == 0) return;
  Result<const json::Value*> events_field = chrome_trace->Get("traceEvents");
  if (!events_field.ok() || !(*events_field)->is_array()) return;
  // Get() hands back a const view; we own the document, so re-resolve the
  // mutable array through object().
  json::Value& events = chrome_trace->object()["traceEvents"];

  const auto meta = [&events](int64_t tid, const char* name,
                              std::string value) {
    json::Value event = json::Value::MakeObject();
    event.Set("name", json::Value::String(name));
    event.Set("ph", json::Value::String("M"));
    event.Set("ts", json::Value::Number(0.0));
    event.Set("pid", json::Value::Int(kRunnerTrackPid));
    event.Set("tid", json::Value::Int(tid));
    json::Value args = json::Value::MakeObject();
    args.Set("name", json::Value::String(std::move(value)));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  };
  meta(0, "process_name", "shard-runner");
  for (int shard = 0; shard < profile.shards; ++shard) {
    meta(shard + 1, "thread_name", StrFormat("shard%d", shard));
  }

  // One span per recorded phase per shard, positioned at the phase's
  // sim-time extent; the measured wall-clock cost rides in args. Spans are
  // appended in phase order, so each (pid, tid) lane stays monotone.
  for (const EngineProfile::PhaseRecord& record : profile.phase_records) {
    const double ts = record.sim_begin * 1e6;
    const double dur = std::max(0.0, (record.sim_end - record.sim_begin) * 1e6);
    for (size_t shard = 0; shard < record.execute_seconds.size(); ++shard) {
      json::Value event = json::Value::MakeObject();
      event.Set("name", json::Value::String("phase"));
      event.Set("cat", json::Value::String("engine"));
      event.Set("ph", json::Value::String("X"));
      event.Set("ts", json::Value::Number(ts));
      event.Set("dur", json::Value::Number(dur));
      event.Set("pid", json::Value::Int(kRunnerTrackPid));
      event.Set("tid", json::Value::Int(static_cast<int64_t>(shard) + 1));
      json::Value args = json::Value::MakeObject();
      args.Set("execute_ms",
               json::Value::Number(record.execute_seconds[shard] * 1e3));
      args.Set("stall_ms",
               json::Value::Number(std::max(
                   0.0, (record.wall_seconds - record.execute_seconds[shard]) *
                            1e3)));
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
  }

  // Per-window counters on the coordinator lane (tid 0), in window order.
  const auto counter = [&events](const char* name, double ts, uint64_t value) {
    json::Value event = json::Value::MakeObject();
    event.Set("name", json::Value::String(name));
    event.Set("cat", json::Value::String("engine"));
    event.Set("ph", json::Value::String("C"));
    event.Set("ts", json::Value::Number(ts));
    event.Set("pid", json::Value::Int(kRunnerTrackPid));
    event.Set("tid", json::Value::Int(0));
    json::Value args = json::Value::MakeObject();
    args.Set("value", json::Value::Number(static_cast<double>(value)));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  };
  // Both series emitted per window (not series-by-series) so the lane's
  // timestamps stay nondecreasing in array order.
  for (size_t window = 0; window < profile.window_events.size(); ++window) {
    const double ts = window < profile.window_end_times.size()
                          ? profile.window_end_times[window] * 1e6
                          : 0.0;
    counter("window_events", ts, profile.window_events[window]);
    if (window < profile.window_net_tuples.size()) {
      counter("window_net_tuples", ts, profile.window_net_tuples[window]);
    }
  }
}

}  // namespace laar::obs
