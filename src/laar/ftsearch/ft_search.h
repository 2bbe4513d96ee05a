#ifndef LAAR_FTSEARCH_FT_SEARCH_H_
#define LAAR_FTSEARCH_FT_SEARCH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "laar/common/result.h"
#include "laar/model/cluster.h"
#include "laar/model/graph.h"
#include "laar/model/input_space.h"
#include "laar/model/placement.h"
#include "laar/model/rates.h"
#include "laar/obs/metrics_registry.h"
#include "laar/strategy/activation_strategy.h"

namespace laar::ftsearch {

/// How a search run terminated, matching the paper's Fig. 4 labels.
enum class SearchOutcome {
  kOptimal = 0,     ///< BST — optimal solution found and proven
  kFeasible = 1,    ///< SOL — time limit hit with a feasible solution in hand
  kInfeasible = 2,  ///< NUL — proven that no feasible solution exists
  kTimeout = 3,     ///< TMO — time limit hit with no solution found
};

const char* SearchOutcomeName(SearchOutcome outcome);

/// Counters for one pruning strategy (§4.5): how many times it fired and
/// the cumulative height of the pruned subtrees (height = number of not-yet
/// bound variables below the pruned node, the paper's Fig. 6 right metric).
struct PruningStats {
  uint64_t count = 0;
  uint64_t total_height = 0;

  double MeanHeight() const {
    return count == 0 ? 0.0 : static_cast<double>(total_height) / static_cast<double>(count);
  }
};

/// Aggregate search statistics.
struct FtSearchStats {
  uint64_t nodes_explored = 0;
  uint64_t solutions_found = 0;
  PruningStats cpu;    ///< pruning on CPU constraint (CPU)
  PruningStats compl_; ///< pruning on IC upper bound (COMPL)
  PruningStats cost;   ///< pruning on cost lower bound (COST)
  PruningStats dom;    ///< forward domain propagation (DOM)

  void MergeFrom(const FtSearchStats& other);
};

/// Point-in-time snapshot of a running search, delivered to the `progress`
/// callback. The counts are the search's own, exact at the moment of the
/// snapshot; the final snapshot also counts the greedy seed's solution.
struct FtSearchProgress {
  double elapsed_seconds = 0.0;
  uint64_t nodes_explored = 0;
  uint64_t solutions_found = 0;

  bool has_incumbent = false;
  double incumbent_cost = 0.0;
  double incumbent_ic = 0.0;

  uint64_t cpu_prunes = 0;
  uint64_t compl_prunes = 0;
  uint64_t cost_prunes = 0;
  uint64_t dom_prunes = 0;

  /// One line: "t=1.2s nodes=500000 sol=3 best=12.5 ic=0.61 prunes[...]".
  std::string ToString() const;
};

/// Tuning knobs of FT-Search. The defaults reproduce the configuration of
/// §4.5; the enable_* flags exist for the pruning ablation study.
struct FtSearchOptions {
  /// The SLA internal-completeness requirement (Eq. 10), in [0, 1].
  double ic_requirement = 0.5;

  /// Hard wall-clock limit; the best solution so far is returned when it
  /// expires (§4.5 uses 10 minutes). <= 0 means no limit.
  double time_limit_seconds = 600.0;

  /// No effect: the search is serial and deterministic, and parallelism
  /// comes from running many searches side by side (runtime::RunCorpus,
  /// the search-study benches). Only benchmark/laar_bench.cc still sets it;
  /// the field goes when that assignment does.
  int num_threads = 1;

  bool enable_cpu_pruning = true;
  bool enable_ic_pruning = true;
  bool enable_cost_pruning = true;
  bool enable_dom_propagation = true;

  /// Explore the most CPU-hungry input configurations first — the §4.5
  /// heuristic that makes CPU/IC constraints fail faster.
  bool hungriest_config_first = true;

  /// COMPL bound flavour: when set, the IC upper bound propagates the
  /// already-decided Δ̂ values through the undecided remainder of the
  /// current configuration (exact optimistic recursion, O(edges) per
  /// node); otherwise it uses precomputed failure-free suffix sums (O(1)
  /// per node, much looser).
  bool tight_ic_bound = true;

  /// Seed the search with a greedy feasible solution (all replicas active,
  /// then deactivate from the sinks upward until no host is overloaded).
  /// A seed makes COST pruning effective from the first node and ensures
  /// even timed-out runs return a usable strategy. The seed is not
  /// recorded as the "first solution" (Fig. 5 semantics).
  bool seed_greedy = true;

  /// Try the both-replicas-active value before the single-replica values at
  /// every node (finds IC-feasible solutions early).
  bool try_both_first = true;

  /// Observational progress hook: invoked roughly every
  /// `progress_interval_nodes` explored nodes (at most once per threshold,
  /// when the search next charges its budget) and once more after the
  /// search finishes. It must not block: it runs on the search's hot path.
  /// It cannot influence the search, so results are identical with and
  /// without it.
  std::function<void(const FtSearchProgress&)> progress;
  uint64_t progress_interval_nodes = 1u << 16;

  /// Abort after this many stop checks (0 = unlimited). The search checks
  /// its budget when it enters a node and again after each value it tries,
  /// about four times per explored node, so a search stopped by this limit
  /// reports roughly node_limit / 4 `nodes_explored`. Unlike the wall-clock
  /// limit, this budget is deterministic: the outcome is a pure function of
  /// the inputs, independent of machine load. The corpus runner relies on
  /// this to keep its records invariant under --jobs.
  uint64_t node_limit = 0;
};

/// The outcome of a search run.
struct FtSearchResult {
  SearchOutcome outcome = SearchOutcome::kTimeout;

  /// Best strategy found; present for kOptimal and kFeasible.
  std::optional<strategy::ActivationStrategy> strategy;

  /// Cost per second (Eq. 13 with T = 1) of the best/first solutions.
  double best_cost = 0.0;
  double best_ic = 0.0;
  double first_solution_cost = 0.0;

  /// The search's explored-node count when the first and the best
  /// solutions were recorded: deterministic milestones, where wall-clock
  /// times would depend on machine load. `best_solution_nodes` is 0 when the
  /// greedy seed stays the incumbent.
  uint64_t first_solution_nodes = 0;
  uint64_t best_solution_nodes = 0;
  double total_seconds = 0.0;

  FtSearchStats stats;

  std::string ToString() const;
};

/// Publishes search statistics into `registry` under `ftsearch_*` names;
/// per-rule prune counters carry a `rule=cpu|compl|cost|dom` label on top
/// of `labels`.
void PublishTo(obs::MetricsRegistry* registry, const FtSearchStats& stats,
               const obs::MetricsRegistry::Labels& labels = {});

/// Runs FT-Search (§4.5): a depth-first branch-and-bound over the replica
/// activation states of every (PE, input configuration) pair, restricted to
/// twofold replication (k = 2), with the CPU / COMPL / COST / DOM pruning
/// strategies. The search runs serially on the calling thread.
///
/// Requirements: validated graph and placement, k = 2, every PE placed,
/// `rates` computed from the same graph/space.
Result<FtSearchResult> RunFtSearch(const model::ApplicationGraph& graph,
                                   const model::InputSpace& space,
                                   const model::ExpectedRates& rates,
                                   const model::ReplicaPlacement& placement,
                                   const model::Cluster& cluster,
                                   const FtSearchOptions& options);

}  // namespace laar::ftsearch

#endif  // LAAR_FTSEARCH_FT_SEARCH_H_
