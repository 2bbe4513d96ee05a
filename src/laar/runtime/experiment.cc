#include "laar/runtime/experiment.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "laar/common/rng.h"
#include "laar/common/stopwatch.h"
#include "laar/common/strings.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/obs/chrome_trace.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/trace_recorder.h"

namespace laar::runtime {

const char* FailureScenarioName(FailureScenario scenario) {
  switch (scenario) {
    case FailureScenario::kNone:
      return "best-case";
    case FailureScenario::kWorstCase:
      return "worst-case";
    case FailureScenario::kHostCrash:
      return "host-crash";
    case FailureScenario::kDomainOutage:
      return "domain-outage";
  }
  return "?";
}

namespace {

/// Hosts that actually carry at least one replica, in host order. Crashing
/// any other host is a guaranteed no-op.
std::vector<model::HostId> ReplicaCarryingHosts(const appgen::GeneratedApplication& app) {
  std::vector<model::HostId> hosts;
  for (size_t h = 0; h < app.cluster.num_hosts(); ++h) {
    const auto host = static_cast<model::HostId>(h);
    if (!app.placement.ReplicasOn(host).empty()) hosts.push_back(host);
  }
  return hosts;
}

/// Start times of the High segments of the trace, in order.
std::vector<double> HighSegmentStarts(const dsps::InputTrace& trace,
                                      model::ConfigId high) {
  std::vector<double> starts;
  double elapsed = 0.0;
  for (const dsps::TraceSegment& segment : trace.segments()) {
    if (segment.config == high) {
      starts.push_back(elapsed + std::min(2.0, segment.duration * 0.1));
    }
    elapsed += segment.duration;
  }
  return starts;
}

}  // namespace

Result<dsps::InputTrace> MakeExperimentTrace(const model::InputSpace& space,
                                             double total_seconds, double high_fraction,
                                             int cycles) {
  if (total_seconds <= 0.0 || cycles < 1 || high_fraction <= 0.0 || high_fraction >= 1.0) {
    return Status::InvalidArgument("invalid trace parameters");
  }
  const double cycle = total_seconds / cycles;
  const model::ConfigId low = 0;
  const model::ConfigId high = space.PeakConfig();
  return dsps::InputTrace::Alternating(low, cycle * (1.0 - high_fraction), high,
                                       cycle * high_fraction, cycles);
}

std::vector<int> ChooseWorstCaseSurvivors(const model::ApplicationGraph& graph,
                                          const model::InputSpace& space,
                                          const strategy::ActivationStrategy& strategy) {
  std::vector<int> survivors(graph.num_components(), -1);
  const int k = strategy.replication_factor();
  for (model::ComponentId pe : graph.Pes()) {
    // Weighted activity of each replica; the adversary keeps the least
    // active one alive (assumption 2: the survivor is chosen among the
    // inactive replicas whenever some configuration deactivates one).
    // Equally active replicas tie-break to the lowest index, so the
    // survivor choice is deterministic and order-independent.
    int best = 0;
    double best_activity = 0.0;
    for (int r = 0; r < k; ++r) {
      double activity = 0.0;
      for (model::ConfigId c = 0; c < space.num_configs(); ++c) {
        if (strategy.IsActive(pe, r, c)) activity += space.Probability(c);
      }
      if (r == 0 || activity < best_activity) {
        best = r;
        best_activity = activity;
      }
    }
    survivors[static_cast<size_t>(pe)] = best;
  }
  return survivors;
}

Result<dsps::SimulationMetrics> RunScenario(const appgen::GeneratedApplication& app,
                                            const strategy::ActivationStrategy& strategy,
                                            const dsps::InputTrace& trace,
                                            const dsps::RuntimeOptions& runtime_options,
                                            const ScenarioOptions& scenario) {
  dsps::StreamSimulation simulation(app.descriptor, app.cluster, app.placement, strategy,
                                    trace, runtime_options);
  switch (scenario.scenario) {
    case FailureScenario::kNone:
      break;
    case FailureScenario::kWorstCase: {
      const std::vector<int> survivors =
          ChooseWorstCaseSurvivors(app.descriptor.graph, app.descriptor.input_space,
                                   strategy);
      for (model::ComponentId pe : app.descriptor.graph.Pes()) {
        for (int r = 0; r < strategy.replication_factor(); ++r) {
          if (r != survivors[static_cast<size_t>(pe)]) {
            LAAR_RETURN_IF_ERROR(simulation.InjectPermanentReplicaFailure(pe, r));
          }
        }
      }
      break;
    }
    case FailureScenario::kHostCrash: {
      // A random host crashes shortly after a High period begins — the
      // window where LAAR's guarantees are weakest (§5.3). Drawn among the
      // hosts that actually carry replicas: a uniform draw over all hosts
      // silently degenerated to a no-op whenever the seed landed on an
      // empty host.
      Rng rng(scenario.seed);
      const std::vector<model::HostId> candidates = ReplicaCarryingHosts(app);
      if (candidates.empty()) {
        return Status::FailedPrecondition("placement puts replicas on no host");
      }
      const model::HostId host = candidates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
      const std::vector<double> starts =
          HighSegmentStarts(trace, app.descriptor.input_space.PeakConfig());
      if (starts.empty()) {
        return Status::FailedPrecondition("trace has no High segment to crash during");
      }
      LAAR_RETURN_IF_ERROR(
          simulation.ScheduleHostCrash(host, starts.front(),
                                       scenario.crash_duration_seconds));
      break;
    }
    case FailureScenario::kDomainOutage: {
      // Correlated bursts: whole failure domains (racks/zones) die at once.
      // Each burst strikes one High period and re-draws a replica-carrying
      // domain, so a run can lose different domains over its lifetime.
      const model::FailureTopology& topology = app.cluster.topology();
      LAAR_RETURN_IF_ERROR(topology.Validate(app.cluster.num_hosts()));
      std::vector<model::DomainId> domains;
      for (const model::HostId host : ReplicaCarryingHosts(app)) {
        const model::DomainId domain = topology.DomainOf(host, scenario.domain_level);
        if (std::find(domains.begin(), domains.end(), domain) == domains.end()) {
          domains.push_back(domain);
        }
      }
      if (domains.empty()) {
        return Status::FailedPrecondition("placement puts replicas on no host");
      }
      const std::vector<double> starts =
          HighSegmentStarts(trace, app.descriptor.input_space.PeakConfig());
      if (starts.empty()) {
        return Status::FailedPrecondition("trace has no High segment to crash during");
      }
      Rng rng(scenario.seed);
      const int bursts =
          std::min<int>(std::max(scenario.outage_bursts, 1),
                        static_cast<int>(starts.size()));
      for (int b = 0; b < bursts; ++b) {
        const model::DomainId domain = domains[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(domains.size()) - 1))];
        for (const model::HostId host :
             topology.HostsInDomain(scenario.domain_level, domain)) {
          LAAR_RETURN_IF_ERROR(simulation.ScheduleHostCrash(
              host, starts[static_cast<size_t>(b)], scenario.crash_duration_seconds));
        }
      }
      break;
    }
  }
  LAAR_RETURN_IF_ERROR(simulation.Run());
  return simulation.metrics();
}

namespace {

std::string SeedLabel(uint64_t seed) {
  return StrFormat("%llu", static_cast<unsigned long long>(seed));
}

/// Mean sink output rate over the High segments of the trace.
double PeakOutputRate(const dsps::SimulationMetrics& metrics, const dsps::InputTrace& trace,
                      model::ConfigId high) {
  double total_tuples = 0.0;
  double total_seconds = 0.0;
  double begin = 0.0;
  for (const dsps::TraceSegment& segment : trace.segments()) {
    const double end = begin + segment.duration;
    if (segment.config == high) {
      total_tuples += dsps::SimulationMetrics::MeanRate(metrics.sink_series,
                                                        metrics.bucket_seconds, begin, end) *
                      segment.duration;
      total_seconds += segment.duration;
    }
    begin = end;
  }
  return total_seconds <= 0.0 ? 0.0 : total_tuples / total_seconds;
}

}  // namespace

void StageTimes::MergeFrom(const StageTimes& other) {
  generate_seconds += other.generate_seconds;
  solve_seconds += other.solve_seconds;
  simulate_best_seconds += other.simulate_best_seconds;
  simulate_worst_seconds += other.simulate_worst_seconds;
  simulate_crash_seconds += other.simulate_crash_seconds;
  simulate_domain_seconds += other.simulate_domain_seconds;
}

const VariantMeasurement* AppExperimentRecord::Find(const std::string& name) const {
  for (const VariantMeasurement& m : variants) {
    if (m.variant == name) return &m;
  }
  return nullptr;
}

void StageTimes::AddSimulate(FailureScenario scenario, double seconds) {
  switch (scenario) {
    case FailureScenario::kNone:
      simulate_best_seconds += seconds;
      return;
    case FailureScenario::kWorstCase:
      simulate_worst_seconds += seconds;
      return;
    case FailureScenario::kHostCrash:
      simulate_crash_seconds += seconds;
      return;
    case FailureScenario::kDomainOutage:
      simulate_domain_seconds += seconds;
      return;
  }
}

Result<PreparedExperiment> PrepareExperiment(const HarnessOptions& options, uint64_t seed) {
  PreparedExperiment prepared;
  prepared.seed = seed;
  Stopwatch stage_watch;
  LAAR_ASSIGN_OR_RETURN(prepared.app, appgen::GenerateApplication(options.generator, seed));
  prepared.stages.generate_seconds = stage_watch.ElapsedSeconds();

  stage_watch.Restart();
  LAAR_ASSIGN_OR_RETURN(prepared.variants, BuildVariants(prepared.app, options.variants));
  prepared.stages.solve_seconds = stage_watch.ElapsedSeconds();

  stage_watch.Restart();
  LAAR_ASSIGN_OR_RETURN(
      prepared.trace,
      MakeExperimentTrace(prepared.app.descriptor.input_space, options.trace_seconds,
                          options.high_fraction, options.trace_cycles));
  prepared.stages.generate_seconds += stage_watch.ElapsedSeconds();
  return prepared;
}

AppExperimentRecord StartRecord(const HarnessOptions& options,
                                const PreparedExperiment& prepared) {
  AppExperimentRecord record;
  record.app_seed = prepared.seed;
  record.stages = prepared.stages;
  for (const NamedVariant& variant : prepared.variants) {
    VariantMeasurement measurement;
    measurement.variant = variant.name;
    measurement.promised_ic = variant.search.has_value() ? variant.search->best_ic : 0.0;
    record.variants.push_back(std::move(measurement));
    if (options.metrics != nullptr && variant.search.has_value()) {
      ftsearch::PublishTo(options.metrics, variant.search->stats,
                          {{"seed", SeedLabel(prepared.seed)}, {"variant", variant.name}});
    }
  }
  return record;
}

std::vector<FailureScenario> HarnessScenarios(const HarnessOptions& options) {
  std::vector<FailureScenario> scenarios = {FailureScenario::kNone};
  if (options.run_worst_case) scenarios.push_back(FailureScenario::kWorstCase);
  if (options.run_host_crash) scenarios.push_back(FailureScenario::kHostCrash);
  if (options.run_domain_outage) scenarios.push_back(FailureScenario::kDomainOutage);
  return scenarios;
}

Result<double> RunVariantScenario(const HarnessOptions& options,
                                  const PreparedExperiment& prepared, size_t variant_index,
                                  FailureScenario scenario, VariantMeasurement* measurement) {
  Stopwatch watch;
  const NamedVariant& variant = prepared.variants[variant_index];
  const std::string seed_label = SeedLabel(prepared.seed);
  ScenarioOptions scenario_options;
  scenario_options.scenario = scenario;
  if (scenario == FailureScenario::kHostCrash) {
    scenario_options.seed = prepared.seed ^ 0x9E3779B97F4A7C15ULL;
  } else if (scenario == FailureScenario::kDomainOutage) {
    scenario_options.seed = prepared.seed ^ 0xC2B2AE3D27D4EB4FULL;
    scenario_options.domain_level = options.domain_outage_level;
    scenario_options.outage_bursts = options.domain_outage_bursts;
  }

  // Per-simulation tracing and registry publishing, when the harness asks
  // for them. The recorder is local to this call (and hence to the corpus
  // task running it), which keeps the trace files byte-identical for any
  // --jobs value.
  dsps::RuntimeOptions runtime = options.runtime;
  std::optional<obs::TraceRecorder> recorder;
  if (!options.trace_dir.empty()) {
    obs::TraceRecorder::Options trace_options;
    trace_options.capacity = options.trace_capacity;
    trace_options.categories = options.trace_categories;
    recorder.emplace(trace_options);
    runtime.trace_recorder = &*recorder;
  }
  const obs::MetricsRegistry::Labels scenario_labels = {
      {"seed", seed_label}, {"variant", variant.name}, {"scenario", FailureScenarioName(scenario)}};
  if (options.metrics != nullptr && options.record_timeseries) {
    runtime.telemetry = options.metrics;
    runtime.telemetry_period_seconds = options.telemetry_period_seconds;
    runtime.telemetry_labels = scenario_labels;
  }
  std::optional<obs::LatencyTracer> tracer;
  if (options.metrics != nullptr && options.latency_sample_rate > 0.0) {
    obs::LatencyTracer::Options tracer_options;
    tracer_options.sample_rate = options.latency_sample_rate;
    tracer_options.seed = options.latency_seed;
    tracer.emplace(tracer_options);
    runtime.latency_tracer = &*tracer;
  }
  LAAR_ASSIGN_OR_RETURN(
      dsps::SimulationMetrics metrics,
      RunScenario(prepared.app, variant.strategy, prepared.trace, runtime, scenario_options));
  if (recorder.has_value()) {
    const std::string path =
        StrFormat("%s/seed%s_%s_%s.json", options.trace_dir.c_str(), seed_label.c_str(),
                  variant.name.c_str(), FailureScenarioName(scenario));
    LAAR_RETURN_IF_ERROR(json::WriteFile(
        obs::ToChromeTraceJson(*recorder, tracer.has_value() ? &*tracer : nullptr), path));
  }
  if (options.metrics != nullptr) {
    dsps::PublishTo(options.metrics, metrics, scenario_labels);
    if (tracer.has_value()) {
      obs::PublishBreakdown(options.metrics, tracer->Breakdown(), scenario_labels);
    }
  }
  const double seconds = watch.ElapsedSeconds();

  switch (scenario) {
    case FailureScenario::kNone:
      measurement->cpu_cycles = metrics.TotalCpuCycles();
      measurement->dropped = metrics.dropped_tuples;
      measurement->processed_best = metrics.TotalProcessed();
      measurement->peak_output_rate = PeakOutputRate(
          metrics, prepared.trace, prepared.app.descriptor.input_space.PeakConfig());
      if (!metrics.sink_latency.empty()) {
        measurement->latency_mean = metrics.sink_latency.mean();
        measurement->latency_p95 = metrics.sink_latency.Percentile(95.0);
        laar::Histogram hist(0.0, dsps::kSinkLatencyHistogramMaxSeconds,
                             dsps::kSinkLatencyHistogramBins);
        for (double sample : metrics.sink_latency.samples()) hist.Add(sample);
        measurement->latency_hist = std::move(hist);
      }
      break;
    case FailureScenario::kWorstCase:
      measurement->processed_worst = metrics.TotalProcessed();
      break;
    case FailureScenario::kHostCrash:
      measurement->processed_crash = metrics.TotalProcessed();
      break;
    case FailureScenario::kDomainOutage:
      measurement->processed_domain = metrics.TotalProcessed();
      break;
  }
  return seconds;
}

Result<AppExperimentRecord> RunAppExperiment(const HarnessOptions& options, uint64_t seed) {
  LAAR_ASSIGN_OR_RETURN(PreparedExperiment prepared, PrepareExperiment(options, seed));
  AppExperimentRecord record = StartRecord(options, prepared);
  const std::vector<FailureScenario> scenarios = HarnessScenarios(options);
  for (size_t v = 0; v < prepared.variants.size(); ++v) {
    for (FailureScenario scenario : scenarios) {
      LAAR_ASSIGN_OR_RETURN(
          double seconds,
          RunVariantScenario(options, prepared, v, scenario, &record.variants[v]));
      record.stages.AddSimulate(scenario, seconds);
    }
  }
  return record;
}

}  // namespace laar::runtime
