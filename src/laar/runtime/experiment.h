#ifndef LAAR_RUNTIME_EXPERIMENT_H_
#define LAAR_RUNTIME_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "laar/appgen/app_generator.h"
#include "laar/common/result.h"
#include "laar/common/stats.h"
#include "laar/dsps/runtime_options.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/trace_event.h"
#include "laar/runtime/variants.h"

namespace laar::runtime {

/// The §5.3 failure modes.
enum class FailureScenario {
  kNone = 0,         ///< best case: no failure ever occurs
  kWorstCase = 1,    ///< pessimistic model: one replica of each PE dead throughout
  kHostCrash = 2,    ///< one random host crashes during a High period, then recovers
  kDomainOutage = 3, ///< a whole failure domain (rack/zone) crashes, possibly repeatedly
};

const char* FailureScenarioName(FailureScenario scenario);

struct ScenarioOptions {
  FailureScenario scenario = FailureScenario::kNone;
  /// Host-crash parameters: detection + migration takes 16 s on Streams
  /// (§5.3, citing [19]).
  double crash_duration_seconds = 16.0;
  /// Seed controlling the crashed-host/domain choice and crash instant.
  uint64_t seed = 1;

  /// kDomainOutage parameters: the domain granularity that fails together
  /// (per `cluster.topology()`), and how many High periods are struck —
  /// each burst re-draws a replica-carrying domain from `seed` and crashes
  /// every host in it for `crash_duration_seconds`.
  model::DomainLevel domain_level = model::DomainLevel::kRack;
  int outage_bursts = 1;
};

/// Builds the §5.2 experiment trace: `cycles` repetitions of
/// (Low for (1-high_fraction)·T/cycles, High for high_fraction·T/cycles).
Result<dsps::InputTrace> MakeExperimentTrace(const model::InputSpace& space,
                                             double total_seconds, double high_fraction,
                                             int cycles);

/// For every PE, the replica index an adversary (per the pessimistic model,
/// assumptions 1-2 of §4.4) would keep alive: the one with the smallest
/// probability-weighted activity, i.e. chosen among the inactive ones when
/// possible. Indexed by component id; -1 for non-PEs.
std::vector<int> ChooseWorstCaseSurvivors(const model::ApplicationGraph& graph,
                                          const model::InputSpace& space,
                                          const strategy::ActivationStrategy& strategy);

/// Runs one variant of one application under a failure scenario and returns
/// the collected metrics.
Result<dsps::SimulationMetrics> RunScenario(const appgen::GeneratedApplication& app,
                                            const strategy::ActivationStrategy& strategy,
                                            const dsps::InputTrace& trace,
                                            const dsps::RuntimeOptions& runtime_options,
                                            const ScenarioOptions& scenario);

/// Aggregated per-variant measurements of one application.
struct VariantMeasurement {
  std::string variant;
  double cpu_cycles = 0.0;        ///< best-case total CPU consumption
  uint64_t dropped = 0;           ///< best-case queue-overflow drops
  uint64_t processed_best = 0;    ///< Σ_pe tuples processed, best case
  uint64_t processed_worst = 0;   ///< same, pessimistic worst case
  uint64_t processed_crash = 0;   ///< same, host-crash scenario (if run)
  uint64_t processed_domain = 0;  ///< same, domain-outage scenario (if run)
  double peak_output_rate = 0.0;  ///< mean sink rate over High periods, best case
  double promised_ic = 0.0;       ///< FT-Search IC bound (L.x variants)

  double latency_mean = 0.0;  ///< best-case mean sink latency, seconds
  double latency_p95 = 0.0;   ///< best-case p95 sink latency, seconds
  /// Best-case sink-latency distribution over
  /// [0, dsps::kSinkLatencyHistogramMaxSeconds) with
  /// dsps::kSinkLatencyHistogramBins bins; absent when latency recording
  /// was off.
  std::optional<laar::Histogram> latency_hist;
};

/// Wall-clock breakdown of one `RunAppExperiment` call (or, merged, of a
/// whole corpus): where the harness actually spends its time.
struct StageTimes {
  double generate_seconds = 0.0;       ///< application generation + trace build
  double solve_seconds = 0.0;          ///< BuildVariants (FT-Search, baselines)
  double simulate_best_seconds = 0.0;  ///< best-case simulations, all variants
  double simulate_worst_seconds = 0.0; ///< pessimistic worst-case simulations
  double simulate_crash_seconds = 0.0; ///< host-crash simulations
  double simulate_domain_seconds = 0.0; ///< domain-outage simulations

  double SimulateSeconds() const {
    return simulate_best_seconds + simulate_worst_seconds + simulate_crash_seconds +
           simulate_domain_seconds;
  }
  double TotalSeconds() const {
    return generate_seconds + solve_seconds + SimulateSeconds();
  }
  void MergeFrom(const StageTimes& other);
  /// Adds one `scenario` simulation's seconds to its stage.
  void AddSimulate(FailureScenario scenario, double seconds);
};

/// Per-application record of the full §5.3 comparison.
struct AppExperimentRecord {
  uint64_t app_seed = 0;
  std::vector<VariantMeasurement> variants;  // NR first, then SR, GRD, L.x
  /// Wall-clock accounting; timing only, never part of record identity
  /// (the parallel corpus runner produces identical variant measurements
  /// for any --jobs value, but stage times differ run to run).
  StageTimes stages;

  const VariantMeasurement* Find(const std::string& name) const;
};

struct HarnessOptions {
  appgen::GeneratorOptions generator;
  VariantBuildOptions variants;
  dsps::RuntimeOptions runtime;
  double trace_seconds = 300.0;
  double high_fraction = 1.0 / 3.0;
  int trace_cycles = 3;
  bool run_worst_case = true;
  bool run_host_crash = false;
  /// Runs the correlated domain-outage scenario per variant. Pointless on a
  /// trivial topology (it degenerates to kHostCrash with extra bursts), so
  /// pair it with non-trivial `generator.hosts_per_rack`.
  bool run_domain_outage = false;
  model::DomainLevel domain_outage_level = model::DomainLevel::kRack;
  int domain_outage_bursts = 1;

  /// When non-empty, every (variant, scenario) simulation records a trace
  /// and writes it as Chrome trace-event JSON to
  /// `<trace_dir>/seed<seed>_<variant>_<scenario>.json`. The directory must
  /// already exist. Each recorder lives entirely inside the task running
  /// its simulation, so the files are byte-identical for any corpus --jobs
  /// value.
  std::string trace_dir;
  uint32_t trace_categories = obs::kAllCategories;
  size_t trace_capacity = 1u << 18;

  /// Optional registry the experiment publishes into: the canonical
  /// `sim_*` aggregates per (seed, variant, scenario) and `ftsearch_*`
  /// statistics per (seed, variant). The registry is thread-safe and each
  /// label combination has a single writer, so a corpus run fills it
  /// identically for any --jobs value. Must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;

  /// When set (and `metrics` is non-null), every simulation also records
  /// `ts_*` telemetry series into the registry, labelled with
  /// (seed, variant, scenario) — one writer per label set, so the series
  /// are --jobs-invariant like the scalar aggregates.
  bool record_timeseries = false;
  double telemetry_period_seconds = 1.0;

  /// When > 0 (and `metrics` is non-null), every simulation runs a sampled
  /// latency tracer at this rate and publishes its per-operator and
  /// end-to-end percentile gauges (`trace_*`) per (seed, variant, scenario).
  double latency_sample_rate = 0.0;
  uint64_t latency_seed = 1;
};

/// The usability step of one seed: its generated application, the variant
/// set, and the experiment trace. It alone decides whether a seed is usable,
/// and it writes no trace file and publishes no metric, so a seed probed and
/// then discarded leaves nothing behind.
struct PreparedExperiment {
  uint64_t seed = 0;
  appgen::GeneratedApplication app;
  std::vector<NamedVariant> variants;  // NR, SR, GRD, then L.x
  dsps::InputTrace trace;
  StageTimes stages;  ///< generate and solve seconds
};

/// Generates the application of `seed`, builds its variants and the
/// experiment trace. Fails (FailedPrecondition when FT-Search proves some
/// L.x infeasible) when the seed is not usable.
Result<PreparedExperiment> PrepareExperiment(const HarnessOptions& options, uint64_t seed);

/// The record `prepared` fills: its seed and stage times so far, and one
/// measurement per variant carrying the variant's name and promised IC.
/// Publishes every L.x variant's FT-Search statistics into
/// `options.metrics`, per (seed, variant).
AppExperimentRecord StartRecord(const HarnessOptions& options,
                                const PreparedExperiment& prepared);

/// The scenarios `options` runs for every variant, best case first.
std::vector<FailureScenario> HarnessScenarios(const HarnessOptions& options);

/// Runs `scenario` for `prepared.variants[variant]`, writing the trace file
/// and publishing the metrics `options` asks for, and folds the simulation
/// into `measurement`. Each scenario writes only the measurement fields it
/// owns, so the scenarios of one variant may run concurrently. Returns the
/// simulation's wall-clock seconds.
Result<double> RunVariantScenario(const HarnessOptions& options,
                                  const PreparedExperiment& prepared, size_t variant,
                                  FailureScenario scenario, VariantMeasurement* measurement);

/// Generates an application from `seed`, builds all variants, and runs the
/// requested scenarios, one simulation after another. Returns
/// FailedPrecondition when the instance is not usable (e.g. FT-Search proves
/// some L.x infeasible); callers skip those seeds, like the paper's corpus
/// keeps only solvable instances.
Result<AppExperimentRecord> RunAppExperiment(const HarnessOptions& options, uint64_t seed);

}  // namespace laar::runtime

#endif  // LAAR_RUNTIME_EXPERIMENT_H_
