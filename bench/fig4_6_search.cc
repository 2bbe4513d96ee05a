// Reproduces the FT-Search study of §4.5 (Figs. 4–6) and its two ablations
// from one corpus, as the paper does.
//
// Fig. 4: types of FT-Search solutions as the IC constraint grows from 0.5
//        to 0.9 — (BST) proven optimum, (SOL) feasible when the budget ran
//        out, (NUL) proven infeasible, (TMO) budget spent without a
//        solution. Paper: NUL grows with the IC constraint; solved instances
//        shrink; TMO stays a small fraction.
// Fig. 5: on instances an unseeded search (no greedy incumbent, so the
//        first solution is the search's own) solves to proven optimality at
//        IC 0.5–0.7,
//  (a) cost(first solution) / cost(optimum) — paper: positively skewed,
//      mean 1.057;
//  (b) nodes(first solution) / nodes(optimum found) — paper, in time: mean
//      0.37, i.e. a first feasible solution arrives much earlier than the
//      optimum.
// Fig. 6: relative number of prunes per strategy and mean height of the
//        pruned branches, over the Fig. 4 searches at IC 0.5–0.7. Paper: the
//        IC-bound strategy (COMPL) fires most often, followed by forward
//        domain propagation (DOM); CPU prunes higher in the tree; COST is
//        the least used.
// Ablations at IC 0.6: each pruning rule disabled in turn, then the §4.5
//        exploration-order heuristics (hungriest configuration first,
//        both replicas first). Pruning and ordering are sound, so every
//        optimum equals the default search's; the nodes show each rule's
//        saving. The default search's IC 0.6 row is the baseline of both.
//
// Every search runs serially under one node budget with no wall-clock
// limit, and each feeds every view that reads it. Explored nodes stand in
// for time, as the budget stands in for the paper's 10-minute limit, so
// stdout depends on the flags alone, whatever --jobs.

#include <cmath>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/search_corpus.h"
#include "laar/common/stats.h"
#include "laar/common/stopwatch.h"
#include "laar/exec/parallel.h"
#include "laar/ftsearch/ft_search.h"

namespace {

using laar::ftsearch::FtSearchOptions;
using laar::ftsearch::FtSearchResult;
using laar::ftsearch::SearchOutcome;
/// One configuration's searches at one IC level, in corpus order.
using Searches = std::span<const FtSearchResult>;

/// The default search with at most one change.
struct Config {
  const char* name;
  void (*apply)(FtSearchOptions*);
};

const Config kDefault = {"all-on", [](FtSearchOptions*) {}};
const Config kUnseeded = {"unseeded", [](FtSearchOptions* o) { o->seed_greedy = false; }};
const Config kPruningAblations[] = {
    {"-CPU", [](FtSearchOptions* o) { o->enable_cpu_pruning = false; }},
    {"-COMPL", [](FtSearchOptions* o) { o->enable_ic_pruning = false; }},
    {"-COST", [](FtSearchOptions* o) { o->enable_cost_pruning = false; }},
    {"-DOM", [](FtSearchOptions* o) { o->enable_dom_propagation = false; }},
};
const Config kHeuristicAblations[] = {
    {"hungriest=1 both-first=0", [](FtSearchOptions* o) { o->try_both_first = false; }},
    {"hungriest=0 both-first=1",
     [](FtSearchOptions* o) { o->hungriest_config_first = false; }},
    {"hungriest=0 both-first=0",
     [](FtSearchOptions* o) {
       o->hungriest_config_first = false;
       o->try_both_first = false;
     }},
};
constexpr double kFig4Ics[] = {0.5, 0.6, 0.7, 0.8, 0.9};
constexpr size_t kFig56Levels = 3;    // IC 0.5–0.7, the first Fig. 4 levels
constexpr size_t kAblationLevel = 1;  // IC 0.6
constexpr double kAblationIc = kFig4Ics[kAblationLevel];

bool Proved(const FtSearchResult& run) { return run.outcome == SearchOutcome::kOptimal; }

void PrintFig4(std::span<const Searches> levels, uint64_t node_limit) {
  laar::bench::PrintHeader("Fig. 4", "FT-Search outcome counts vs IC constraint",
                           "NUL grows with IC; BST+SOL shrink; TMO small");
  std::printf("%-6s %6s %6s %6s %6s   (n=%zu per row, %llu stop-check budget)\n", "IC",
              "BST", "SOL", "NUL", "TMO", levels[0].size(),
              static_cast<unsigned long long>(node_limit));
  for (size_t l = 0; l < levels.size(); ++l) {
    int counts[4] = {0, 0, 0, 0};
    for (const FtSearchResult& run : levels[l]) ++counts[static_cast<int>(run.outcome)];
    std::printf("%-6.2f %6d %6d %6d %6d\n", kFig4Ics[l],
                counts[static_cast<int>(SearchOutcome::kOptimal)],
                counts[static_cast<int>(SearchOutcome::kFeasible)],
                counts[static_cast<int>(SearchOutcome::kInfeasible)],
                counts[static_cast<int>(SearchOutcome::kTimeout)]);
  }
}

void PrintFig5(std::span<const Searches> unseeded) {
  laar::bench::PrintHeader("Fig. 5", "first solution vs optimum (cost and node ratios)",
                           "cost ratio skewed right with mean slightly above 1; "
                           "node ratio well below 1");
  laar::SampleStats cost_ratio;
  laar::SampleStats node_ratio;
  for (const Searches& level : unseeded) {
    for (const FtSearchResult& run : level) {
      if (!Proved(run) || run.best_cost <= 0.0 || run.first_solution_cost <= 0.0) continue;
      cost_ratio.Add(run.first_solution_cost / run.best_cost);
      // Unseeded, both solutions are the search's own: 0 < first <= best.
      node_ratio.Add(static_cast<double>(run.first_solution_nodes) /
                     static_cast<double>(run.best_solution_nodes));
    }
  }

  std::printf("\n(a) cost(first)/cost(optimal), n=%zu, mean=%.3f\n", cost_ratio.count(),
              cost_ratio.mean());
  laar::Histogram cost_hist(1.0, 2.0, 10);
  for (double v : cost_ratio.samples()) cost_hist.Add(v);
  std::printf("%s", cost_hist.ToString().c_str());

  std::printf("\n(b) nodes(first)/nodes(optimal), n=%zu, mean=%.3f\n", node_ratio.count(),
              node_ratio.mean());
  laar::Histogram node_hist(0.0, 1.0 + 1e-9, 10);
  for (double v : node_ratio.samples()) node_hist.Add(v);
  std::printf("%s", node_hist.ToString().c_str());
}

void PrintFig6(std::span<const Searches> levels) {
  laar::bench::PrintHeader("Fig. 6", "pruning strategy usage and pruned-branch height",
                           "COMPL most applied, then DOM; CPU prunes the tallest "
                           "branches; COST least used");
  laar::ftsearch::FtSearchStats total;
  for (const Searches& level : levels) {
    for (const FtSearchResult& run : level) total.MergeFrom(run.stats);
  }
  const double all = static_cast<double>(total.cpu.count + total.compl_.count +
                                         total.cost.count + total.dom.count);
  std::printf("nodes explored: %llu, total prunes: %.0f\n",
              static_cast<unsigned long long>(total.nodes_explored), all);
  std::printf("%-8s %12s %10s %12s\n", "strategy", "prunes", "share", "mean height");
  const std::pair<const char*, const laar::ftsearch::PruningStats*> rows[] = {
      {"CPU", &total.cpu},
      {"COMPL", &total.compl_},
      {"COST", &total.cost},
      {"DOM", &total.dom},
  };
  for (const auto& [name, stats] : rows) {
    std::printf("%-8s %12llu %9.1f%% %12.2f\n", name,
                static_cast<unsigned long long>(stats->count),
                all > 0 ? 100.0 * static_cast<double>(stats->count) / all : 0.0,
                stats->MeanHeight());
  }
}

/// One ablation table: the baseline row, then one row per configuration.
/// Nodes and prunes are summed over the instances the baseline proves,
/// since a search the budget stops explores the whole budget whatever the
/// rule. Returns false if some configuration proves another optimum.
bool PrintAblation(const char* what, const char* expectation, Searches baseline,
                   std::span<const Config> configs, std::span<const Searches> ablated) {
  laar::bench::PrintHeader("Ablation", what, expectation);
  size_t proved = 0;
  for (const FtSearchResult& run : baseline) proved += Proved(run) ? 1 : 0;
  std::printf("IC %.1f; nodes and prunes over the %zu of %zu instances all-on proves\n",
              kAblationIc, proved, baseline.size());
  std::printf("%-26s %14s %14s %8s\n", "config", "nodes(sum)", "prunes(sum)", "proofs");
  bool sound = true;
  const auto print_row = [&](const char* name, Searches runs) {
    uint64_t nodes = 0;
    uint64_t prunes = 0;
    int proofs = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      const FtSearchResult& run = runs[i];
      if (Proved(run)) ++proofs;
      if (!Proved(baseline[i])) continue;
      nodes += run.stats.nodes_explored;
      prunes += run.stats.cpu.count + run.stats.compl_.count + run.stats.cost.count +
                run.stats.dom.count;
    }
    std::printf("%-26s %14llu %14llu %8d\n", name, static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(prunes), proofs);
    for (size_t i = 0; i < runs.size(); ++i) {
      const double want = baseline[i].best_cost;
      if (Proved(runs[i]) && Proved(baseline[i]) &&
          std::abs(runs[i].best_cost - want) > 1e-6 * want) {
        std::printf("  !! optimum mismatch on instance %zu: %g vs %g\n", i,
                    runs[i].best_cost, want);
        sound = false;
      }
    }
  };
  print_row(kDefault.name, baseline);
  for (size_t c = 0; c < configs.size(); ++c) print_row(configs[c].name, ablated[c]);
  return sound;
}

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 24);
  const uint64_t seed = flags.GetUint64("seed", 100);
  // About 8 M explored nodes: the stop checks run about four times a node.
  const uint64_t node_limit = flags.GetUint64("node-limit", 32000000);
  const int jobs = laar::ResolveJobs(laar::bench::JobsFromFlags(flags));
  flags.Finish();

  const auto corpus = laar::bench::GenerateSearchCorpus(num_apps, seed);

  // Every search, one (configuration, IC) leg after another and each leg in
  // corpus order: the default search at every Fig. 4 level, the unseeded
  // one at the Fig. 5 levels, then each ablated configuration at IC 0.6.
  std::vector<std::pair<const Config*, double>> legs;
  for (double ic : kFig4Ics) legs.emplace_back(&kDefault, ic);
  for (size_t l = 0; l < kFig56Levels; ++l) legs.emplace_back(&kUnseeded, kFig4Ics[l]);
  for (const Config& config : kPruningAblations) legs.emplace_back(&config, kAblationIc);
  for (const Config& config : kHeuristicAblations) legs.emplace_back(&config, kAblationIc);

  const size_t n = corpus.size();
  std::vector<FtSearchResult> results(legs.size() * n);
  std::vector<laar::Status> errors(results.size());
  const auto search = [&](size_t task) {
    const auto& [config, ic] = legs[task / n];
    const laar::bench::SearchInstance& instance = corpus[task % n];
    FtSearchOptions options;
    options.ic_requirement = ic;
    options.time_limit_seconds = 0.0;
    options.node_limit = node_limit;
    config->apply(&options);
    auto run = laar::ftsearch::RunFtSearch(
        instance.app.descriptor.graph, instance.app.descriptor.input_space, instance.rates,
        instance.app.placement, instance.app.cluster, options);
    if (run.ok()) {
      results[task] = std::move(*run);
    } else {
      errors[task] = run.status();
    }
  };
  laar::Stopwatch watch;
  if (jobs > 1) {
    // `jobs` threads in all: ParallelFor adds the calling thread.
    laar::ThreadPool pool(static_cast<size_t>(jobs - 1));
    pool.ParallelFor(results.size(), search);
  } else {
    for (size_t task = 0; task < results.size(); ++task) search(task);
  }
  for (const laar::Status& error : errors) {
    if (!error.ok()) {
      std::fprintf(stderr, "search failed: %s\n", error.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "[fig4_6_search] %zu searches on %d thread(s) in %.1f s\n",
               results.size(), jobs, watch.ElapsedSeconds());

  std::vector<Searches> by_leg;
  for (size_t leg = 0; leg < legs.size(); ++leg) {
    by_leg.push_back(Searches(results).subspan(leg * n, n));
  }
  const std::span<const Searches> all(by_leg);
  const std::span<const Searches> fig4 = all.first(std::size(kFig4Ics));
  const std::span<const Searches> unseeded =
      all.subspan(std::size(kFig4Ics), kFig56Levels);
  const std::span<const Searches> pruning =
      all.subspan(std::size(kFig4Ics) + kFig56Levels, std::size(kPruningAblations));
  const std::span<const Searches> heuristics = all.last(std::size(kHeuristicAblations));

  PrintFig4(fig4, node_limit);
  std::printf("\n");
  PrintFig5(unseeded);
  std::printf("\n");
  PrintFig6(fig4.first(kFig56Levels));
  std::printf("\n");
  bool sound = PrintAblation("FT-Search pruning rules disabled one at a time",
                             "identical optima; more nodes without each rule",
                             fig4[kAblationLevel], kPruningAblations, pruning);
  std::printf("\n");
  sound &= PrintAblation("FT-Search exploration-order heuristics",
                         "identical optima; hungriest-config-first explores fewer nodes",
                         fig4[kAblationLevel], kHeuristicAblations, heuristics);
  return sound ? 0 : 1;
}
