// laar_simulate — the on-line half of the LAAR workflow: replay an input
// trace against a deployed application under a replica activation strategy
// and report the §5.3 metrics.
//
// `--help` lists the flags; --app and --strategy are required. The
// deployment flags (tools/deployment.h) are read as laar_solve reads them.
//
// Under --worst-case, --crash-host, --fail-domain, or --crash-schedule a
// failure-free reference simulation also runs (in parallel with the failure
// scenario when --jobs > 1) and the report gains the measured completeness
// ratio against it.
//
// --hosts-per-rack / --racks-per-zone give the cluster a uniform failure
// topology; --fail-domain=rack:R (or zone:Z) then crashes every host of
// that domain at --crash-at for --crash-duration, and --placement=domain
// spreads each PE's replicas across distinct racks. --crash-schedule
// injects an explicit list of host crashes `H@T+D` (host H down from T for
// D seconds); overlapping windows on one host merge into a single outage.
//
// --trace-out records the run's structured events (drops, queue watermarks,
// activation switches, failures, config changes, processing spans) and
// writes them as Chrome trace-event JSON, openable in Perfetto or
// chrome://tracing. --trace-categories restricts recording to a
// comma-separated subset of {drops, queues, activation, failures, config,
// spans, engine, tuples, health}; --trace-capacity bounds the event ring
// (default 262144).
//
// --link-latency=S switches tuple delivery to the conservative-window
// engine (DESIGN.md §10): every cross-host transfer takes between one and
// two link latencies, and --shards=N partitions the hosts over N event
// engines that run on up to N threads (at most one per hardware thread;
// the profile records the count as runner_workers). At a fixed
// --link-latency the shard count never changes any output byte — it only
// changes wall-clock time — which is why --shards > 1 demands an explicit
// --link-latency rather than defaulting one (a default would silently
// switch engines between --shards=1 and --shards=2). Incompatible with
// --latency-sample-rate (the per-tuple causal tracer is a
// synchronous-engine feature).
//
// --rack-latency-factor / --zone-latency-factor (integers >= 1, in
// windows) stretch cross-rack / cross-zone links on top of --link-latency.
// They change delivery times, so compare runs only at equal factors.
//
// --latency-sample-rate traces that fraction of each source's tuples through
// every queue, operator, and replica proxy, and prints a per-operator
// queueing-vs-processing p50/p95/p99 table plus per-path end-to-end
// percentiles. Sampled span trees are merged into --trace-out.
//
// --timeseries-out samples per-host CPU utilization, per-operator queue
// depth, and source/output/drop rates every --telemetry-period sim-seconds,
// written as CSV (path ending .csv) or JSON. --metrics-out dumps the entire
// metrics registry as JSON.
//
// --profile-out attaches the engine self-profiler (obs/engine_profiler.h)
// and writes its RunInfo-stamped JSON: measured per-shard execute/stall
// wall-clock plus deterministic window, imbalance, and cross-shard traffic
// counters. The shards-invariant deterministic aggregate is also published
// as prof_* registry entries (so it lands in --metrics-out and in
// `laar_trace diff`), and when --trace-out is also given the Chrome export
// gains a "shard-runner" track (workers as threads, phases as spans,
// per-window counters). Summarize with `laar_trace profile`. Profiling
// changes no simulation byte: all hashed artifacts stay identical.
//
// --health-out evaluates declarative alert rules over the recorded series
// (see --alerts for the rule grammar; --slo-latency-p99/--slo-drop-rate add
// the two common SLO rules) and writes a machine-readable health report.
// The process exits 3 when a critical rule fired — "SLO met" becomes a
// scriptable exit code.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "laar/common/flags.h"
#include "laar/common/strings.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/exec/parallel.h"
#include "laar/model/descriptor.h"
#include "laar/obs/chrome_trace.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/health.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/loss_ledger.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/run_info.h"
#include "laar/obs/trace_recorder.h"
#include "laar/runtime/experiment.h"
#include "tools/deployment.h"

namespace {

/// Host `host` down from `at` for `duration` seconds (`H@T+D` in --crash-schedule).
struct HostCrash {
  int host = -1;
  double at = 0.0;
  double duration = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  laar::Flags flags(argc, argv);
  const std::string app_path = flags.GetString("app", "");
  const std::string strategy_path = flags.GetString("strategy", "");
  const laar::tools::DeploymentFlags deployment_flags(flags);
  const double trace_seconds = flags.GetDouble("trace-seconds", 300.0);
  const double high_fraction = flags.GetDouble("high-fraction", 1.0 / 3.0);
  const int cycles = flags.GetInt("cycles", 3);

  laar::dsps::RuntimeOptions runtime;
  runtime.shards = flags.GetInt("shards", 1);
  runtime.link_latency_seconds = flags.GetDouble("link-latency", 0.0);
  runtime.rack_latency_factor = flags.GetInt("rack-latency-factor", 1);
  runtime.zone_latency_factor = flags.GetInt("zone-latency-factor", 1);

  const std::string trace_out = flags.GetString("trace-out", "");
  laar::obs::TraceRecorder::Options trace_options;
  trace_options.capacity =
      static_cast<size_t>(flags.GetUint64("trace-capacity", trace_options.capacity));
  bool categories_ok = false;
  trace_options.categories = laar::obs::ParseCategoryList(
      flags.GetString("trace-categories", ""), &categories_ok);
  if (!categories_ok) {
    std::fprintf(stderr, "unknown name in --trace-categories\n");
    return 2;
  }
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string timeseries_out = flags.GetString("timeseries-out", "");
  runtime.telemetry_period_seconds = flags.GetDouble("telemetry-period", 1.0);
  const double sample_rate = flags.GetDouble("latency-sample-rate", 0.0);
  const uint64_t latency_seed = flags.GetUint64("latency-seed", 1);
  const std::string profile_out = flags.GetString("profile-out", "");

  const std::string health_out = flags.GetString("health-out", "");
  const bool has_alerts = flags.Has("alerts");
  const bool has_slo_latency = flags.Has("slo-latency-p99");
  const bool has_slo_drop = flags.Has("slo-drop-rate");
  const bool want_health = !health_out.empty() || has_alerts || has_slo_latency || has_slo_drop;
  std::vector<laar::obs::AlertRule> rules;
  if (want_health) {
    auto parsed = laar::obs::ParseAlertRules(flags.GetString("alerts", ""));
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    rules = std::move(parsed).value();
    if (has_slo_latency) {
      auto slo = laar::obs::ParseAlertRule(
          laar::StrFormat("slo_latency_p99: sim_sink_latency_p99_seconds > %.17g crit",
                          flags.GetDouble("slo-latency-p99", 1.0)));
      rules.push_back(std::move(slo).value());
    }
    if (has_slo_drop) {
      auto slo = laar::obs::ParseAlertRule(
          laar::StrFormat("slo_drop_rate: ts_drop_rate > %.17g crit",
                          flags.GetDouble("slo-drop-rate", 0.0)));
      rules.push_back(std::move(slo).value());
    }
    if (rules.empty()) {
      // Default watchdogs so --health-out alone yields a useful report:
      // any drops, or a host pinned near saturation, are worth a warning.
      rules.push_back(
          laar::obs::ParseAlertRule("drops: ts_drop_rate > 0 warn").value());
      rules.push_back(
          laar::obs::ParseAlertRule("saturation: ts_host_cpu_util > 0.99 for 5 warn")
              .value());
    }
  }

  const bool worst_case = flags.Has("worst-case");
  const bool crash_host = flags.Has("crash-host");
  const double crash_at = flags.GetDouble("crash-at", 10.0);
  const double crash_duration = flags.GetDouble("crash-duration", 16.0);
  // Host crashes in injection order: --crash-host, the --fail-domain hosts
  // (added once the cluster exists), then --crash-schedule.
  std::vector<HostCrash> crashes;
  if (crash_host) crashes.push_back({flags.GetInt("crash-host", 0), crash_at, crash_duration});
  // --fail-domain: "rack:R", "zone:Z", or a bare rack id.
  const bool fail_domain = flags.Has("fail-domain");
  const std::string domain_spec = flags.GetString("fail-domain", "0");
  laar::model::DomainLevel domain_level = laar::model::DomainLevel::kRack;
  int domain = -1;
  if (fail_domain) {
    std::string id_part = domain_spec;
    if (domain_spec.starts_with("rack:")) {
      id_part = domain_spec.substr(5);
    } else if (domain_spec.starts_with("zone:")) {
      domain_level = laar::model::DomainLevel::kZone;
      id_part = domain_spec.substr(5);
    }
    int consumed = -1;  // %n: the id must be all of id_part
    if (std::sscanf(id_part.c_str(), "%d%n", &domain, &consumed) != 1 ||
        consumed != static_cast<int>(id_part.size())) {
      std::fprintf(stderr, "cannot parse --fail-domain=%s\n", domain_spec.c_str());
      return 2;
    }
  }
  // Comma-separated `H@T+D` entries; overlapping windows are legal and
  // merge inside the simulation. Each number is parsed as a numeric flag
  // value is, so `nan`, `inf` and blanks are rejected here, and so is the
  // empty entry after a trailing comma.
  const bool has_schedule = flags.Has("crash-schedule");
  const std::string schedule = flags.GetString("crash-schedule", "");
  std::vector<HostCrash> scheduled_crashes;
  for (size_t begin = 0; !schedule.empty() && begin <= schedule.size();) {
    size_t end = schedule.find(',', begin);
    if (end == std::string::npos) end = schedule.size();
    const std::string_view entry = std::string_view(schedule).substr(begin, end - begin);
    // The '+' that ends T is the first one after '@' that is not an
    // exponent's sign.
    const size_t at_sign = entry.find('@');
    size_t plus = at_sign == std::string_view::npos ? at_sign : entry.find('+', at_sign + 1);
    while (plus != std::string_view::npos &&
           (entry[plus - 1] == 'e' || entry[plus - 1] == 'E')) {
      plus = entry.find('+', plus + 1);
    }
    HostCrash crash;
    if (plus == std::string_view::npos ||
        !laar::Flags::ParseNumber(entry.substr(0, at_sign), &crash.host) ||
        !laar::Flags::ParseNumber(entry.substr(at_sign + 1, plus - at_sign - 1), &crash.at) ||
        !laar::Flags::ParseNumber(entry.substr(plus + 1), &crash.duration)) {
      std::fprintf(stderr, "cannot parse --crash-schedule entry '%.*s' (want H@T+D)\n",
                   static_cast<int>(entry.size()), entry.data());
      return 2;
    }
    scheduled_crashes.push_back(crash);
    begin = end + 1;
  }
  const int jobs = laar::ResolveJobs(flags.GetInt("jobs", 1));
  flags.Finish();

  if (app_path.empty() || strategy_path.empty()) {
    std::fprintf(stderr, "laar_simulate: --app and --strategy are required (see --help)\n");
    return 2;
  }
  if (runtime.shards > 1 && runtime.link_latency_seconds <= 0.0) {
    // A default here would silently change delivery semantics between
    // --shards=1 (synchronous engine) and --shards=2 (windowed engine),
    // making the two runs incomparable. The latency is the physical
    // parameter; the shard count is only a wall-clock knob under it.
    std::fprintf(stderr,
                 "--shards=%d requires an explicit --link-latency: the shard "
                 "count is byte-identical only at a fixed link latency "
                 "(try --link-latency=0.005)\n",
                 runtime.shards);
    return 2;
  }
  if (sample_rate > 0.0 && runtime.link_latency_seconds > 0.0) {
    std::fprintf(stderr,
                 "--latency-sample-rate is incompatible with --link-latency/"
                 "--shards: the causal tracer requires the synchronous engine\n");
    return 2;
  }

  auto app = laar::model::ApplicationDescriptor::LoadFromFile(app_path);
  if (!app.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", app_path.c_str(),
                 app.status().ToString().c_str());
    return 1;
  }
  const auto deployment = laar::tools::BuildDeployment(*app, deployment_flags);
  auto strategy = laar::strategy::ActivationStrategy::LoadFromFile(
      strategy_path, app->graph.num_components(), deployment.placement.replication_factor(),
      app->input_space.num_configs());
  if (!strategy.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", strategy_path.c_str(),
                 strategy.status().ToString().c_str());
    return 1;
  }

  auto trace = laar::runtime::MakeExperimentTrace(app->input_space, trace_seconds,
                                                  high_fraction, cycles);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace construction failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  std::optional<laar::obs::TraceRecorder> recorder;
  if (!trace_out.empty()) {
    recorder.emplace(trace_options);
    runtime.trace_recorder = &*recorder;
  }

  // Everything this run measures lands in one registry: the canonical sim_*
  // aggregates, the trace_* latency percentiles, and the ts_* telemetry
  // series the health rules range over.
  laar::obs::MetricsRegistry registry;
  if (!timeseries_out.empty() || !metrics_out.empty() || want_health) {
    runtime.telemetry = &registry;
  }
  std::optional<laar::obs::LatencyTracer> tracer;
  if (sample_rate > 0.0) {
    laar::obs::LatencyTracer::Options tracer_options;
    tracer_options.sample_rate = sample_rate;
    tracer_options.seed = latency_seed;
    tracer.emplace(tracer_options);
    runtime.latency_tracer = &*tracer;
  }
  std::optional<laar::obs::EngineProfiler> profiler;
  if (!profile_out.empty()) {
    profiler.emplace();
    runtime.profiler = &*profiler;
  }
  laar::dsps::StreamSimulation simulation(*app, deployment.cluster, deployment.placement,
                                          *strategy, *trace, runtime);
  const bool has_failures = worst_case || crash_host || fail_domain || has_schedule;
  if (worst_case) {
    const auto survivors = laar::runtime::ChooseWorstCaseSurvivors(
        app->graph, app->input_space, *strategy);
    for (laar::model::ComponentId pe : app->graph.Pes()) {
      for (int r = 0; r < strategy->replication_factor(); ++r) {
        if (r != survivors[static_cast<size_t>(pe)]) {
          simulation.InjectPermanentReplicaFailure(pe, r).CheckOK();
        }
      }
    }
  }
  if (fail_domain) {
    const laar::model::FailureTopology& topology = deployment.cluster.topology();
    const std::vector<laar::model::HostId> hosts = topology.HostsInDomain(domain_level, domain);
    if (hosts.empty()) {
      std::fprintf(stderr, "--fail-domain: %s %d has no hosts (topology has %d)\n",
                   laar::model::DomainLevelName(domain_level), domain,
                   topology.NumDomains(domain_level));
      return 2;
    }
    std::printf("fail-domain: %s %d -> hosts", laar::model::DomainLevelName(domain_level),
                domain);
    for (const laar::model::HostId host : hosts) {
      std::printf(" %d", host);
      crashes.push_back({host, crash_at, crash_duration});
    }
    std::printf("\n");
  }
  crashes.insert(crashes.end(), scheduled_crashes.begin(), scheduled_crashes.end());
  for (const HostCrash& crash : crashes) {
    const laar::Status status = simulation.ScheduleHostCrash(
        static_cast<laar::model::HostId>(crash.host), crash.at, crash.duration);
    if (!status.ok()) {
      std::fprintf(stderr, "crash injection failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Failure scenarios also run a failure-free reference for the measured
  // completeness ratio; --jobs > 1 runs the two simulations concurrently.
  std::optional<laar::dsps::StreamSimulation> reference;
  if (has_failures) {
    // The recorder, tracer, and telemetry series are single-writer and the
    // two simulations may run concurrently: only the failure scenario is
    // observed.
    laar::dsps::RuntimeOptions reference_runtime = runtime;
    reference_runtime.trace_recorder = nullptr;
    reference_runtime.latency_tracer = nullptr;
    reference_runtime.telemetry = nullptr;
    reference_runtime.profiler = nullptr;
    reference.emplace(*app, deployment.cluster, deployment.placement, *strategy, *trace,
                      reference_runtime);
  }
  laar::Status status = laar::Status::OK();
  laar::Status reference_status = laar::Status::OK();
  const auto run_one = [&](size_t i) {
    if (i == 0) {
      status = simulation.Run();
    } else {
      reference_status = reference->Run();
    }
  };
  const size_t num_runs = reference.has_value() ? 2 : 1;
  if (jobs > 1 && num_runs > 1) {
    laar::ThreadPool pool(std::min(static_cast<size_t>(jobs), num_runs));
    pool.ParallelFor(num_runs, run_one);
  } else {
    for (size_t i = 0; i < num_runs; ++i) run_one(i);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!reference_status.ok()) {
    std::fprintf(stderr, "reference simulation failed: %s\n",
                 reference_status.ToString().c_str());
    return 1;
  }

  const laar::dsps::SimulationMetrics& m = simulation.metrics();
  std::printf("duration            %10.1f s\n", m.duration);
  std::printf("source tuples       %10llu\n",
              static_cast<unsigned long long>(m.source_tuples));
  std::printf("sink tuples         %10llu\n",
              static_cast<unsigned long long>(m.sink_tuples));
  std::printf("dropped (overflow)  %10llu\n",
              static_cast<unsigned long long>(m.dropped_tuples));
  // Failure-caused losses get a provenance breakdown; failure-free runs
  // keep the historical report shape.
  if (m.crash_lost_tuples + m.resync_lost_tuples + m.orphaned_tuples > 0) {
    std::printf("lost (all causes)   %10llu\n",
                static_cast<unsigned long long>(m.LostTuples()));
    std::printf("%s", m.losses.ToString().c_str());
  }
  std::printf("tuples processed    %10llu\n",
              static_cast<unsigned long long>(m.TotalProcessed()));
  std::printf("CPU consumed        %10.2f core-s (at %.3g cycles/s)\n",
              m.TotalCpuCycles() / deployment_flags.capacity, deployment_flags.capacity);
  if (m.sink_latency.count() > 0) {
    std::printf("sink latency        p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs\n",
                m.sink_latency.Percentile(50), m.sink_latency.Percentile(95),
                m.sink_latency.Percentile(99), m.sink_latency.max());
  }
  if (reference.has_value()) {
    const laar::dsps::SimulationMetrics& ref = reference->metrics();
    std::printf("best-case processed %10llu\n",
                static_cast<unsigned long long>(ref.TotalProcessed()));
    if (ref.TotalProcessed() > 0) {
      std::printf("completeness        %10.4f (processed / best-case processed)\n",
                  static_cast<double>(m.TotalProcessed()) /
                      static_cast<double>(ref.TotalProcessed()));
    }
  }

  // One-line digest sourced from the metrics registry (the same canonical
  // keys the corpus reports publish).
  laar::dsps::PublishTo(&registry, m);
  if (tracer.has_value()) {
    const laar::obs::LatencyBreakdown breakdown = tracer->Breakdown();
    std::printf("%s", breakdown.ToString().c_str());
    laar::obs::PublishBreakdown(&registry, breakdown);
  }
  std::printf("summary: %s\n", laar::dsps::RunSummaryFromRegistry(registry).c_str());

  // Every JSON artifact below carries the same build/run stamp so that
  // `laar_trace diff` can tell comparable runs from incomparable ones.
  // The capture strips `--jobs` and output paths, keeping artifacts
  // byte-identical across parallelism and output locations.
  const laar::obs::RunInfo run_info = laar::obs::RunInfo::Capture(
      "laar_simulate", latency_seed, argc, argv);

  if (profiler.has_value()) {
    const laar::obs::EngineProfile& profile = profiler->profile();
    // The profiler's own closure check: Σ per-shard events + control-plane
    // events must equal the engine's total. A profiled run that cannot
    // account for every event is a broken run.
    const laar::Status closure = profile.ReconcileEvents();
    if (!closure.ok()) {
      std::fprintf(stderr, "profile closure failed: %s\n",
                   closure.ToString().c_str());
      return 1;
    }
    // Publish before the registry is dumped so --metrics-out carries the
    // prof_* entries. Only shards-invariant aggregates are published; the
    // metrics artifact stays byte-identical across --shards counts.
    laar::obs::PublishProfile(&registry, profile);
    std::printf(
        "profile: %llu windows (%.1f ms), %llu phases, sync overhead %.1f%%, "
        "imbalance %.2f, cross-shard %llu tuples\n",
        static_cast<unsigned long long>(profile.windows),
        profile.window_seconds * 1e3,
        static_cast<unsigned long long>(profile.phases),
        profile.SyncOverheadFraction() * 100.0, profile.ImbalanceRatio(),
        static_cast<unsigned long long>(profile.CrossShardTuples()));
    laar::json::Value profile_doc = profile.ToJson();
    profile_doc.Set("run_info", run_info.ToJson());
    const laar::Status write_status =
        laar::json::WriteFile(profile_doc, profile_out);
    if (!write_status.ok()) {
      std::fprintf(stderr, "profile write failed: %s\n",
                   write_status.ToString().c_str());
      return 1;
    }
    std::printf("profile: wrote %s\n", profile_out.c_str());
  }

  if (!metrics_out.empty()) {
    laar::obs::PublishLossLedger(&registry, m.losses);
    laar::json::Value metrics_doc = registry.ToJson();
    metrics_doc.Set("loss_ledger", m.losses.ToJson());
    metrics_doc.Set("run_info", run_info.ToJson());
    const laar::Status write_status = laar::json::WriteFile(metrics_doc, metrics_out);
    if (!write_status.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n", write_status.ToString().c_str());
      return 1;
    }
    std::printf("metrics: wrote %s\n", metrics_out.c_str());
  }
  if (!timeseries_out.empty()) {
    laar::Status write_status = laar::Status::OK();
    if (laar::EndsWith(timeseries_out, ".csv")) {
      const std::string csv = laar::obs::TimeSeriesCsv(registry);
      std::FILE* f = std::fopen(timeseries_out.c_str(), "w");
      if (f == nullptr ||
          std::fwrite(csv.data(), 1, csv.size(), f) != csv.size() ||
          std::fclose(f) != 0) {
        write_status = laar::Status::IoError("cannot write " + timeseries_out);
        if (f != nullptr) std::fclose(f);
      }
    } else {
      write_status = laar::json::WriteFile(laar::obs::TimeSeriesJson(registry),
                                           timeseries_out);
    }
    if (!write_status.ok()) {
      std::fprintf(stderr, "timeseries write failed: %s\n",
                   write_status.ToString().c_str());
      return 1;
    }
    std::printf("timeseries: wrote %s\n", timeseries_out.c_str());
  }

  bool healthy = true;
  if (want_health) {
    const laar::obs::HealthReport report = laar::obs::EvaluateHealth(registry, rules);
    healthy = report.healthy;
    std::printf("%s", report.ToString().c_str());
    if (recorder.has_value()) laar::obs::EmitAlertEvents(&*recorder, report);
    if (!health_out.empty()) {
      laar::json::Value health_doc = report.ToJson();
      health_doc.Set("run_info", run_info.ToJson());
      const laar::Status write_status = laar::json::WriteFile(health_doc, health_out);
      if (!write_status.ok()) {
        std::fprintf(stderr, "health write failed: %s\n",
                     write_status.ToString().c_str());
        return 1;
      }
      std::printf("health: wrote %s\n", health_out.c_str());
    }
  }

  if (recorder.has_value()) {
    laar::json::Value chrome = laar::obs::ToChromeTraceJson(
        *recorder, tracer.has_value() ? &*tracer : nullptr);
    // The trace carries the ledger and the run stamp as extra top-level
    // keys (the Chrome format tolerates unknown keys), so `laar_trace
    // explain` can reconcile its incident losses against the ledger.
    chrome.Set("laarLossLedger", m.losses.ToJson());
    chrome.Set("laarRunInfo", run_info.ToJson());
    // The profiler's view of the run as a second track: ShardRunner workers
    // as threads, phases as spans, per-window counters. Only present when
    // profiling was requested, so unprofiled traces stay byte-identical.
    if (profiler.has_value()) {
      laar::obs::AppendRunnerTrack(&chrome, profiler->profile());
    }
    const laar::Status write_status = laar::json::WriteFile(chrome, trace_out);
    if (!write_status.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   write_status.ToString().c_str());
      return 1;
    }
    std::printf("trace: wrote %s (%llu events, %llu overwritten)\n", trace_out.c_str(),
                static_cast<unsigned long long>(recorder->size()),
                static_cast<unsigned long long>(recorder->overwritten()));
  }
  return healthy ? 0 : 3;
}
