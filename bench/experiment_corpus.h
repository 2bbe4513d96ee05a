#ifndef LAAR_BENCH_EXPERIMENT_CORPUS_H_
#define LAAR_BENCH_EXPERIMENT_CORPUS_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/trace_event.h"
#include "laar/runtime/corpus.h"
#include "laar/runtime/experiment.h"
#include "laar/runtime/report.h"

namespace laar::bench {

/// Shared configuration of the §5.3 cluster experiments (Figs. 9-12) and of
/// ext_latency, ext_shedding and ext_checkpoint, from their common flags
/// (`--help` lists them; EXPERIMENTS.md gives the paper's values). Runs the
/// best and the worst case; a caller that needs the host crash sets
/// `run_host_crash` itself.
inline runtime::HarnessOptions HarnessFromFlags(const Flags& flags) {
  runtime::HarnessOptions options;
  options.generator.num_pes = flags.GetInt("pes", 24);
  options.generator.num_hosts = flags.GetInt("hosts", 12);
  // A gentler overload anchor keeps more instances solvable at IC 0.7 —
  // the paper's 100-application corpus supports all of L.5/L.6/L.7.
  options.generator.high_overload_max = 1.15;
  options.variants.laar_ic_requirements = {0.5, 0.6, 0.7};
  // The budget caps every L.x search. A seed whose search ends without a
  // strategy is skipped, whether FT-Search proved it infeasible or ran out
  // of budget first, so a smaller budget also drops solvable but hard
  // instances. A *node* budget rather than a wall-clock one keeps the
  // outcome — and therefore which seeds the corpus skips — independent of
  // machine load, so --jobs=N reproduces the --jobs=1 records exactly.
  // --time-limit restores a wall-clock cap, at the price of that
  // invariance.
  options.variants.ftsearch_node_limit = flags.GetUint64("node-limit", 2000000);
  options.variants.ftsearch_time_limit_seconds = flags.GetDouble("time-limit", 0.0);
  options.trace_seconds = flags.GetDouble("trace-seconds", 120.0);
  options.trace_cycles = flags.GetInt("trace-cycles", 3);
  options.run_worst_case = true;
  return options;
}

/// Runs the harness over `num_apps` usable seeds (a seed is skipped when
/// some L.x search returns no strategy, proven infeasible or out of
/// budget) on `jobs` threads. Records are identical for any `jobs` value; see
/// `runtime::RunCorpus`. A failed run (a simulation or trace-write error)
/// is reported and exits the process with status 1. Creates `trace_dir`.
inline std::vector<runtime::AppExperimentRecord> RunExperimentCorpus(
    const runtime::HarnessOptions& options, int num_apps, uint64_t seed_base, int jobs) {
  std::error_code ec;
  if (!options.trace_dir.empty()) std::filesystem::create_directories(options.trace_dir, ec);
  runtime::CorpusOptions corpus;
  corpus.num_apps = num_apps;
  corpus.seed_base = seed_base;
  corpus.jobs = jobs;
  runtime::CorpusResult result = runtime::RunCorpus(options, corpus);
  if (!result.status.ok()) {
    std::fprintf(stderr, "corpus run failed: %s\n", result.status.ToString().c_str());
    std::exit(1);
  }
  return std::move(result.records);
}

/// Opt-in observability for the Figs. 9-12 corpus, from its flags.
/// --trace-dir writes one Chrome trace per (seed, variant, scenario)
/// simulation into a directory it creates, keeping --trace-categories in a
/// ring of --trace-capacity events. At the defaults every trace fills the
/// 262,144-event ring, roughly 30 MB, so one app writes about 0.5 GB and the
/// default 12 apps about 6 GB; a shorter --trace-categories list or a
/// smaller --trace-capacity shrinks them. --metrics-out writes the corpus JSON
/// document with the serialized metrics registry. --timeseries records ts_*
/// telemetry every --telemetry-period seconds; --latency-sample-rate samples
/// per-tuple latency into trace_* percentile gauges. An unknown trace
/// category exits 2.
///
/// The registry always collects (it is cheap and gives the bench its
/// one-line aggregate summary); traces, telemetry series, latency sampling
/// and the JSON dump are opt-in. The constructor reads the flags into
/// `options`; the instance must outlive the corpus run `options` drives.
class CorpusObservability {
 public:
  CorpusObservability(const Flags& flags, runtime::HarnessOptions* options)
      : metrics_out_(flags.GetString("metrics-out", "")) {
    options->trace_dir = flags.GetString("trace-dir", "");
    bool categories_ok = false;
    options->trace_categories =
        obs::ParseCategoryList(flags.GetString("trace-categories", ""), &categories_ok);
    if (!categories_ok) {
      std::fprintf(stderr, "unknown name in --trace-categories\n");
      std::exit(2);
    }
    options->trace_capacity =
        static_cast<size_t>(flags.GetUint64("trace-capacity", uint64_t{1} << 18));
    options->metrics = &registry_;
    options->record_timeseries = flags.Has("timeseries");
    options->telemetry_period_seconds = flags.GetDouble("telemetry-period", 1.0);
    options->latency_sample_rate = flags.GetDouble("latency-sample-rate", 0.0);
    options->latency_seed = flags.GetUint64("latency-seed", 1);
  }

  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Prints the aggregate run summary and, when requested, writes the
  /// corpus JSON (records + metrics). Returns a process exit code.
  int Finish(const std::vector<runtime::AppExperimentRecord>& records) {
    std::printf("\nsummary: %s\n",
                dsps::AggregateRunSummaryFromRegistry(registry_).c_str());
    if (!metrics_out_.empty()) {
      const Status status =
          json::WriteFile(runtime::CorpusToJson(records, &registry_), metrics_out_);
      if (!status.ok()) {
        std::fprintf(stderr, "failed to write %s: %s\n", metrics_out_.c_str(),
                     status.ToString().c_str());
        return 1;
      }
      std::printf("metrics: wrote %s\n", metrics_out_.c_str());
    }
    return 0;
  }

 private:
  obs::MetricsRegistry registry_;
  std::string metrics_out_;
};

/// The variant labels in the paper's plotting order.
inline const std::vector<const char*>& VariantOrder() {
  static const std::vector<const char*> kOrder = {"NR", "SR", "GRD", "L.5", "L.6", "L.7"};
  return kOrder;
}

}  // namespace laar::bench

#endif  // LAAR_BENCH_EXPERIMENT_CORPUS_H_
