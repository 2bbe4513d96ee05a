#ifndef LAAR_RUNTIME_CORPUS_H_
#define LAAR_RUNTIME_CORPUS_H_

#include <cstdint>
#include <vector>

#include "laar/common/status.h"
#include "laar/runtime/experiment.h"

namespace laar::runtime {

/// Options of the §5.3 corpus runner: how many usable applications to
/// collect and how to fan the work out.
struct CorpusOptions {
  /// Corpus size (the paper's cluster evaluation uses 100 applications).
  int num_apps = 12;
  /// Seeds `seed_base + 1`, `seed_base + 2`, ... are probed in order.
  uint64_t seed_base = 10000;
  /// Threads in all for the corpus's two fan-outs: 1 = serial, 0 = hardware
  /// concurrency. Any value produces identical records — with `jobs > 1`
  /// seeds are probed with no batch barrier and the first `num_apps` usable
  /// ones are kept in seed order, discarding the (at most `jobs - 1`)
  /// surplus probes past the cut-off.
  int jobs = 1;
  /// Print per-application progress to stderr.
  bool verbose = true;
  /// Give up after `num_apps * max_skips_factor` unusable seeds. A seed is
  /// skipped when some L.x search returns no strategy: either FT-Search
  /// proved it infeasible or the search ran out of budget first. The
  /// paper's corpus keeps only solvable instances; at a small node budget
  /// this one also drops solvable but hard ones.
  int max_skips_factor = 20;
};

/// Everything a corpus run produces beyond the records themselves.
struct CorpusResult {
  /// Not OK when a simulation or a trace write failed (e.g. an unwritable
  /// `trace_dir` or `runtime.shards = 0`); the run then ends with no
  /// records. Unusable seeds are skipped, never reported here.
  Status status;
  std::vector<AppExperimentRecord> records;
  /// Unusable seeds encountered before the corpus filled (surplus
  /// speculative probes are not counted).
  int skipped = 0;
  /// Per-stage wall-clock totals over the accepted applications. Under
  /// `jobs > 1` stages overlap, so the total can exceed `wall_seconds`.
  StageTimes stage_totals;
  /// End-to-end wall-clock of the corpus run.
  double wall_seconds = 0.0;
};

/// Runs the §5.3 harness over a corpus of generated applications. The
/// records are deterministic in (`harness`, `corpus.num_apps`,
/// `corpus.seed_base`) and independent of `corpus.jobs`.
///
/// Two phases. First `CollectUsableSeeds` probes seeds with the usability
/// step alone (`PrepareExperiment`: generate, solve, build the trace) and
/// keeps the first `num_apps` usable ones. Then every (kept app, variant,
/// scenario) simulation runs as one task of a single flat fan-out
/// (`RunVariantScenario`), so a slow application spreads over all threads
/// instead of holding one.
///
/// Thread budget: with `jobs > 1` the runner owns one `laar::ThreadPool` of
/// `jobs - 1` workers, which with the calling thread makes `jobs` threads
/// for both phases. Each FT-Search is serial, so a probe uses one thread.
/// With `jobs == 1` everything runs serially on the calling thread.
CorpusResult RunCorpus(const HarnessOptions& harness, const CorpusOptions& corpus);

}  // namespace laar::runtime

#endif  // LAAR_RUNTIME_CORPUS_H_
