#include "laar/runtime/corpus.h"

#include <atomic>
#include <cstdio>
#include <optional>
#include <utility>

#include "laar/common/stopwatch.h"
#include "laar/exec/parallel.h"

namespace laar::runtime {

CorpusResult RunCorpus(const HarnessOptions& harness, const CorpusOptions& corpus) {
  CorpusResult result;
  Stopwatch watch;
  const int jobs = ResolveJobs(corpus.jobs);
  const int max_skips = corpus.num_apps * corpus.max_skips_factor;

  HarnessOptions options = harness;
  std::optional<ThreadPool> pool;
  if (jobs > 1) {
    // `jobs` threads in all: ParallelFor adds the calling thread.
    pool.emplace(static_cast<size_t>(jobs - 1));
    // The pool is spent on the seed and simulation fan-outs; a parallel
    // FT-Search inside a probe would oversubscribe, so it drops to one
    // thread.
    options.variants.ftsearch_threads = 1;
    options.variants.ftsearch_pool = nullptr;
  } else if (options.variants.ftsearch_threads > 1 &&
             options.variants.ftsearch_pool == nullptr) {
    // Serial corpus: the parallelism budget goes to FT-Search root
    // splitting, on one shared pool across all searches.
    pool.emplace(static_cast<size_t>(options.variants.ftsearch_threads));
    options.variants.ftsearch_pool = &*pool;
  }

  // Phase 1: the usability step alone decides which seeds are kept. It
  // writes no trace and publishes no metric, so surplus probes past the
  // cut-off leave nothing behind.
  std::vector<SeedProbe<PreparedExperiment>> kept =
      CollectUsableSeeds<PreparedExperiment>(
          corpus.num_apps, corpus.seed_base, jobs, max_skips,
          [&options](uint64_t seed) -> std::optional<PreparedExperiment> {
            Result<PreparedExperiment> prepared = PrepareExperiment(options, seed);
            if (!prepared.ok()) return std::nullopt;
            return std::move(*prepared);
          },
          [&corpus](size_t index, const SeedProbe<PreparedExperiment>& probe) {
            if (!corpus.verbose) return;
            std::fprintf(stderr, "  [corpus] app %zu/%d (seed %llu)\n", index + 1,
                         corpus.num_apps,
                         static_cast<unsigned long long>(probe.seed));
          },
          jobs > 1 ? &*pool : nullptr, &result.skipped);

  // Phase 2: every (app, variant, scenario) simulation in one flat fan-out.
  // Each task folds its metrics into the fields its scenario owns and
  // writes its seconds into its own slot, so no task waits on another.
  struct Task {
    size_t app;
    size_t variant;
    FailureScenario scenario;
  };
  const std::vector<FailureScenario> scenarios = HarnessScenarios(options);
  std::vector<Task> tasks;
  result.records.reserve(kept.size());
  for (size_t a = 0; a < kept.size(); ++a) {
    result.records.push_back(StartRecord(options, kept[a].value));
    for (size_t v = 0; v < kept[a].value.variants.size(); ++v) {
      for (FailureScenario scenario : scenarios) tasks.push_back({a, v, scenario});
    }
  }
  std::vector<double> seconds(tasks.size(), 0.0);
  std::vector<Status> errors(tasks.size());
  std::atomic<bool> failed{false};
  auto run_task = [&](size_t i) {
    if (failed) return;
    const Task& task = tasks[i];
    Result<double> ran =
        RunVariantScenario(options, kept[task.app].value, task.variant, task.scenario,
                           &result.records[task.app].variants[task.variant]);
    if (!ran.ok()) {
      errors[i] = ran.status();
      failed = true;
      return;
    }
    seconds[i] = *ran;
  };
  if (jobs > 1) {
    pool->ParallelFor(tasks.size(), run_task);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) run_task(i);
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!errors[i].ok()) {
      // A failed simulation or trace write is a configuration error, not
      // an unusable seed: it ends the run instead of being skipped.
      result.status = errors[i];
      result.records.clear();
      break;
    }
    result.records[tasks[i].app].stages.AddSimulate(tasks[i].scenario, seconds[i]);
  }
  for (const AppExperimentRecord& record : result.records) {
    result.stage_totals.MergeFrom(record.stages);
  }

  result.wall_seconds = watch.ElapsedSeconds();
  if (corpus.verbose) {
    const StageTimes& s = result.stage_totals;
    std::fprintf(stderr,
                 "  [corpus] %zu apps, %d skipped seeds, %.1fs wall (jobs=%d); "
                 "stage totals: generate=%.2fs solve=%.2fs "
                 "simulate=%.2fs (best=%.2fs worst=%.2fs crash=%.2fs)\n",
                 result.records.size(), result.skipped, result.wall_seconds, jobs,
                 s.generate_seconds, s.solve_seconds, s.SimulateSeconds(),
                 s.simulate_best_seconds, s.simulate_worst_seconds,
                 s.simulate_crash_seconds);
  }
  return result;
}

}  // namespace laar::runtime
