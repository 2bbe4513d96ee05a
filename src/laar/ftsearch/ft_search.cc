#include "laar/ftsearch/ft_search.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "laar/common/stopwatch.h"
#include "laar/common/strings.h"

namespace laar::ftsearch {

namespace {

// Domain values of one (PE, configuration) search variable under k = 2:
// both replicas active, or exactly one of them. Eq. 12 excludes the
// zero-active value, which restricts the space to 3^(|P|·|C|) (§4.5).
constexpr int kBoth = 0;
constexpr int kOnly0 = 1;
constexpr int kOnly1 = 2;
constexpr uint8_t kMaskOf[3] = {1, 2, 4};
constexpr uint8_t kMaskAll = 7;

constexpr double kEpsilon = 1e-9;

/// Stop checks between two budget charges, unless the node limit comes
/// sooner (SearchContext::NextCharge).
constexpr uint64_t kStopCheckStride = 512;

/// One incoming edge of a variable's PE, pre-resolved for the inner loops.
struct VarEdge {
  int pred_var;  // the predecessor's variable in the same configuration; -1 for a source
  model::ComponentId from;
  double selectivity;
};

/// One search variable: the activation state of PE `pe` in configuration
/// `config`.
struct Variable {
  model::ConfigId config = 0;
  model::ComponentId pe = 0;
  double demand = 0.0;       // cycles/sec of one active replica (Eq. 11 term)
  double cost_weight = 0.0;  // P(c) * demand: cost per active replica (Eq. 13 term)
  double prob = 0.0;         // P_C(config)
  double arrival_ff = 0.0;   // failure-free arrival rate (FIC upper bound term)
  model::HostId host0 = model::kInvalidHost;
  model::HostId host1 = model::kInvalidHost;
  /// Incoming edges: Problem::edges[edges_begin, edges_end), in graph order.
  uint32_t edges_begin = 0;
  uint32_t edges_end = 0;
};

/// Immutable description of one FT-Search instance.
struct Problem {
  const model::ApplicationGraph* graph = nullptr;
  const model::InputSpace* space = nullptr;
  const model::ExpectedRates* rates = nullptr;
  const model::ReplicaPlacement* placement = nullptr;
  FtSearchOptions options;

  std::vector<Variable> vars;
  /// Every variable's incoming edges, concatenated in variable order.
  std::vector<VarEdge> edges;
  /// Successor PE variables of each variable, same configuration (for DOM
  /// propagation).
  std::vector<std::vector<int>> succ_vars;
  /// suffix_ub[d] = optimistic FIC (per second) achievable by variables
  /// d..end, assuming every undecided PE keeps both replicas active and
  /// receives its full failure-free inflow (Δ̂ <= Δ).
  std::vector<double> suffix_ub;
  /// block_end[d]: index one past the last variable of the configuration
  /// block containing variable d (blocks are |P| variables long).
  std::vector<int> block_end;
  std::vector<double> capacity;  // per host

  double bic_per_sec = 0.0;
  double fic_requirement = 0.0;  // ic_requirement * bic_per_sec
  double base_cost_lb = 0.0;     // one active replica everywhere (Eq. 12 minimum)
  size_t num_components = 0;
  int num_vars = 0;
};

/// State the greedy seeder and the search share: the incumbent, the clock
/// and the budget.
struct SharedState {
  bool found_any = false;
  double best_cost = std::numeric_limits<double>::infinity();
  double best_fic = 0.0;
  std::vector<int8_t> best_assignment;
  double best_seconds = 0.0;
  bool first_recorded = false;
  double first_cost = 0.0;
  double first_seconds = 0.0;

  /// Set when the deadline or the node limit stops the search.
  bool timed_out = false;
  /// Stop checks charged so far: the unit of `node_limit`.
  uint64_t checks_charged = 0;
  /// Explored-node count at which the next progress callback fires.
  uint64_t next_progress = 0;

  Stopwatch watch;
  Deadline deadline;
};

/// A progress snapshot of `stats` and the current incumbent.
FtSearchProgress SnapshotProgress(const Problem& problem, const SharedState& shared,
                                  const FtSearchStats& stats) {
  FtSearchProgress progress;
  progress.elapsed_seconds = shared.watch.ElapsedSeconds();
  progress.nodes_explored = stats.nodes_explored;
  progress.solutions_found = stats.solutions_found;
  progress.cpu_prunes = stats.cpu.count;
  progress.compl_prunes = stats.compl_.count;
  progress.cost_prunes = stats.cost.count;
  progress.dom_prunes = stats.dom.count;
  if (shared.found_any) {
    progress.has_incumbent = true;
    progress.incumbent_cost = shared.best_cost;
    progress.incumbent_ic =
        problem.bic_per_sec <= 0.0 ? 1.0 : shared.best_fic / problem.bic_per_sec;
  }
  return progress;
}

/// Search state: current partial assignment plus every incrementally
/// maintained quantity the pruning rules need.
class SearchContext {
 public:
  /// A `seeder` context installs the greedy seed, which is not part of the
  /// search proper: it records no "first solution" (Fig. 5 semantics) and
  /// counts no prunes.
  SearchContext(const Problem& problem, SharedState* shared, bool seeder = false)
      : problem_(problem),
        shared_(shared),
        seeder_(seeder),
        scratch_(problem.num_components, 0.0),
        assignment_(static_cast<size_t>(problem.num_vars), -1),
        mask_(static_cast<size_t>(problem.num_vars), kMaskAll),
        bound_fic_(static_cast<size_t>(problem.num_vars), 0.0),
        zero_(static_cast<size_t>(problem.space->num_configs()) * problem.num_components, 0),
        delta_hat_(static_cast<size_t>(problem.space->num_configs()) *
                       problem.num_components,
                   0.0),
        loads_(static_cast<size_t>(problem.space->num_configs()) * problem.capacity.size(),
               0.0),
        cost_lb_(problem.base_cost_lb) {
    charge_ = NextCharge(0);
    checks_until_charge_ = charge_;
    // Sources seed the Δ̂ recursion (Eq. 7 first case) and the certain-zero
    // flags driving DOM propagation.
    const model::ConfigId num_configs = problem.space->num_configs();
    for (model::ConfigId c = 0; c < num_configs; ++c) {
      for (model::ComponentId id : problem.graph->Sources()) {
        const double rate = problem.rates->Rate(id, c);
        DeltaHat(c, id) = rate;
        Zero(c, id) = rate <= 0.0 ? 1 : 0;
      }
      for (model::ComponentId id : problem.graph->Pes()) {
        Zero(c, id) = 0;
      }
    }
  }

  FtSearchStats& stats() { return stats_; }

  /// Records the current assignment as a solution if every variable is
  /// bound; used to install the greedy seed without going through the
  /// search loop (and its stop checks).
  void RecordIfComplete() {
    for (int8_t value : assignment_) {
      if (value < 0) return;
    }
    RecordSolution();
  }

  /// Binds the first `prefix.size()` variables without recursing; returns
  /// false if some binding is pruned. Used to install the greedy seed.
  bool BindPrefix(const std::vector<int>& prefix) {
    for (size_t d = 0; d < prefix.size(); ++d) {
      if ((mask_[d] & kMaskOf[prefix[d]]) == 0) return false;
      std::optional<double> single_rest;  // each binding is a node of its own
      if (!Bind(static_cast<int>(d), prefix[d], &single_rest)) return false;
    }
    return true;
  }

  /// Depth-first exploration from `depth`; all variables before `depth`
  /// must already be bound.
  void Dfs(int depth) {
    if (ShouldStop()) return;
    ++stats_.nodes_explored;
    if (depth == problem_.num_vars) {
      RecordSolution();
      return;
    }
    std::optional<double> single_rest;
    for (int value : ValueOrder()) {
      if ((mask_[static_cast<size_t>(depth)] & kMaskOf[value]) == 0) continue;
      if (Bind(depth, value, &single_rest)) {
        Dfs(depth + 1);
        Unbind(depth, value);
      }
      if (ShouldStop()) return;
    }
  }

 private:
  struct TrailEntry {
    enum Kind : uint8_t { kMaskChange, kZeroChange };
    Kind kind;
    uint32_t index;
    uint8_t old_value;
  };

  double& DeltaHat(model::ConfigId c, model::ComponentId id) {
    return DeltaHatRow(c)[id];
  }
  /// Δ̂ of every component in configuration `c`, indexed by component.
  double* DeltaHatRow(model::ConfigId c) {
    return delta_hat_.data() + static_cast<size_t>(c) * problem_.num_components;
  }
  uint8_t& Zero(model::ConfigId c, model::ComponentId id) {
    return zero_[static_cast<size_t>(c) * problem_.num_components + static_cast<size_t>(id)];
  }
  double& Load(model::ConfigId c, model::HostId host) {
    return loads_[static_cast<size_t>(c) * problem_.capacity.size() +
                  static_cast<size_t>(host)];
  }

  const std::array<int, 3>& ValueOrder() const {
    static constexpr std::array<int, 3> kBothFirst = {kBoth, kOnly0, kOnly1};
    static constexpr std::array<int, 3> kSingleFirst = {kOnly0, kOnly1, kBoth};
    return problem_.options.try_both_first ? kBothFirst : kSingleFirst;
  }

  /// The budget check, run when a node is entered and after each value is
  /// tried. It counts down locally and charges the budget only every
  /// `charge_` calls (ChargeBudget).
  bool ShouldStop() {
    if (--checks_until_charge_ != 0) return false;
    return ChargeBudget();
  }

  /// ShouldStop's slow path: charges the last `charge_` calls to the
  /// budget, tests the deadline and the node limit, and reports progress.
  bool ChargeBudget() {
    checks_until_charge_ = 1;  // once stopped, every later call lands here
    if (shared_->timed_out) return true;
    shared_->checks_charged += charge_;
    const uint64_t total = shared_->checks_charged;
    const uint64_t limit = problem_.options.node_limit;
    if (shared_->deadline.Expired() || (limit != 0 && total >= limit)) {
      shared_->timed_out = true;
      return true;
    }
    if (problem_.options.progress) MaybeEmitProgress();
    charge_ = NextCharge(total);
    checks_until_charge_ = charge_;
    return false;
  }

  /// Calls to count locally before the next charge, `total` checks having
  /// been charged: every kStopCheckStride calls, landing exactly on the
  /// node limit.
  uint64_t NextCharge(uint64_t total) const {
    const uint64_t limit = problem_.options.node_limit;
    if (limit == 0) return kStopCheckStride;
    return std::min(kStopCheckStride, limit - total);
  }

  /// Fires the progress callback if the explored-node count crossed the
  /// next threshold.
  void MaybeEmitProgress() {
    if (stats_.nodes_explored < shared_->next_progress) return;
    shared_->next_progress =
        stats_.nodes_explored +
        std::max<uint64_t>(1, problem_.options.progress_interval_nodes);
    problem_.options.progress(SnapshotProgress(problem_, *shared_, stats_));
  }

  /// Attempts to bind variable `depth` to `value`, applying the CPU, COST,
  /// COMPL, and DOM rules. Returns false (fully undone) when pruned.
  /// `single_rest` caches the tight COMPL remainder for the node's two
  /// single-replica values: both leave Δ̂ = 0 at the variable, so
  /// TightRemainder returns the same bits for each. The caller owns it, one
  /// per node.
  bool Bind(int depth, int value, std::optional<double>* single_rest) {
    const Variable& var = problem_.vars[static_cast<size_t>(depth)];
    const FtSearchOptions& options = problem_.options;

    // --- Pruning on CPU constraint (strict < capacity, Eq. 11). ---
    const bool use0 = value != kOnly1;
    const bool use1 = value != kOnly0;
    if (options.enable_cpu_pruning) {
      const bool overload0 =
          use0 && Load(var.config, var.host0) + var.demand >=
                      problem_.capacity[static_cast<size_t>(var.host0)] - kEpsilon;
      const bool overload1 =
          use1 && Load(var.config, var.host1) + var.demand >=
                      problem_.capacity[static_cast<size_t>(var.host1)] - kEpsilon;
      if (overload0 || overload1) {
        NotePrune(&stats_.cpu, depth);
        return false;
      }
    }

    // --- Apply the binding. ---
    if (use0) Load(var.config, var.host0) += var.demand;
    if (use1) Load(var.config, var.host1) += var.demand;
    const double phi = value == kBoth ? 1.0 : 0.0;
    double* const delta_row = DeltaHatRow(var.config);
    const VarEdge* const edges = problem_.edges.data();
    double inflow_delta = 0.0;
    double inflow_fic = 0.0;
    for (const VarEdge* e = edges + var.edges_begin; e != edges + var.edges_end; ++e) {
      const double upstream = delta_row[e->from];
      inflow_delta += e->selectivity * upstream;
      inflow_fic += upstream;
    }
    delta_row[var.pe] = phi * inflow_delta;
    const double fic_contribution = var.prob * phi * inflow_fic;
    bound_fic_[static_cast<size_t>(depth)] = fic_contribution;
    fic_partial_ += fic_contribution;
    if (value == kBoth) cost_lb_ += var.cost_weight;
    assignment_[static_cast<size_t>(depth)] = static_cast<int8_t>(value);
    trail_frames_.push_back(trail_.size());

    // --- Pruning on cost lower bound. ---
    if (options.enable_cost_pruning) {
      if (cost_lb_ >= shared_->best_cost - kEpsilon) {
        NotePrune(&stats_.cost, depth);
        Unbind(depth, value);
        return false;
      }
    }

    // --- Pruning on IC upper bound. ---
    if (options.enable_ic_pruning) {
      double fic_ub;
      if (options.tight_ic_bound) {
        // Exact optimistic bound: undecided PEs of this configuration get
        // φ = 1 but inherit the decided upstream Δ̂; later configurations
        // contribute their failure-free maximum (== the φ ≡ 1 optimum).
        const int block_end = problem_.block_end[static_cast<size_t>(depth)];
        double rest;
        if (value == kBoth) {
          rest = TightRemainder(depth, block_end);
        } else {
          if (!single_rest->has_value()) *single_rest = TightRemainder(depth, block_end);
          rest = **single_rest;
        }
        fic_ub = fic_partial_ + rest + problem_.suffix_ub[static_cast<size_t>(block_end)];
      } else {
        fic_ub = fic_partial_ + problem_.suffix_ub[static_cast<size_t>(depth) + 1];
      }
      if (fic_ub < problem_.fic_requirement - kEpsilon) {
        NotePrune(&stats_.compl_, depth);
        Unbind(depth, value);
        return false;
      }
    }

    // --- Forward domain propagation. ---
    if (options.enable_dom_propagation && value != kBoth) {
      PropagateZero(depth, depth);
    }
    return true;
  }

  void Unbind(int depth, int value) {
    const Variable& var = problem_.vars[static_cast<size_t>(depth)];
    const size_t frame = trail_frames_.back();
    trail_frames_.pop_back();
    while (trail_.size() > frame) {
      const TrailEntry& entry = trail_.back();
      if (entry.kind == TrailEntry::kMaskChange) {
        mask_[entry.index] = entry.old_value;
      } else {
        zero_[entry.index] = entry.old_value;
      }
      trail_.pop_back();
    }
    if (value != kOnly1) Load(var.config, var.host0) -= var.demand;
    if (value != kOnly0) Load(var.config, var.host1) -= var.demand;
    DeltaHat(var.config, var.pe) = 0.0;
    fic_partial_ -= bound_fic_[static_cast<size_t>(depth)];
    bound_fic_[static_cast<size_t>(depth)] = 0.0;
    if (value == kBoth) cost_lb_ -= var.cost_weight;
    assignment_[static_cast<size_t>(depth)] = -1;
  }

  /// Marks variable `var_index`'s output as certainly zero and removes the
  /// both-active value from the domains of successors whose entire inflow
  /// became certainly zero ("no replication forwarding", §4.5 DOM).
  /// `bound_depth` is where the triggering binding happened; the
  /// pruned-branch height of a DOM removal is measured from the removed
  /// variable's own tree level.
  void PropagateZero(int var_index, int bound_depth) {
    const Variable& var = problem_.vars[static_cast<size_t>(var_index)];
    uint8_t& flag = Zero(var.config, var.pe);
    if (flag != 0) return;
    trail_.push_back(TrailEntry{TrailEntry::kZeroChange,
                                static_cast<uint32_t>(
                                    static_cast<size_t>(var.config) * problem_.num_components +
                                    static_cast<size_t>(var.pe)),
                                flag});
    flag = 1;
    for (int succ_var : problem_.succ_vars[static_cast<size_t>(var_index)]) {
      const Variable& succ = problem_.vars[static_cast<size_t>(succ_var)];
      if (Zero(var.config, succ.pe) != 0) continue;
      bool all_zero = true;
      for (uint32_t e = succ.edges_begin; e < succ.edges_end; ++e) {
        if (Zero(var.config, problem_.edges[e].from) == 0) {
          all_zero = false;
          break;
        }
      }
      if (!all_zero) continue;
      if (succ_var > bound_depth) {
        uint8_t& succ_mask = mask_[static_cast<size_t>(succ_var)];
        if ((succ_mask & kMaskOf[kBoth]) != 0) {
          trail_.push_back(TrailEntry{TrailEntry::kMaskChange,
                                      static_cast<uint32_t>(succ_var), succ_mask});
          succ_mask = static_cast<uint8_t>(succ_mask & ~kMaskOf[kBoth]);
          if (!seeder_) {
            ++stats_.dom.count;
            stats_.dom.total_height +=
                static_cast<uint64_t>(problem_.num_vars - succ_var);
          }
        }
      }
      PropagateZero(succ_var, bound_depth);
    }
  }

  /// Optimistic FIC (weighted by P_C) achievable by the undecided
  /// variables (bound_depth, block_end) of the current configuration.
  double TightRemainder(int bound_depth, int block_end) {
    const Variable& bound_var = problem_.vars[static_cast<size_t>(bound_depth)];
    const double* const delta_row = DeltaHatRow(bound_var.config);
    const VarEdge* const edges = problem_.edges.data();
    double rest = 0.0;
    for (int d = bound_depth + 1; d < block_end; ++d) {
      const Variable& var = problem_.vars[static_cast<size_t>(d)];
      double inflow_fic = 0.0;
      double inflow_delta = 0.0;
      for (const VarEdge* e = edges + var.edges_begin; e != edges + var.edges_end; ++e) {
        // A predecessor is a source (Δ̂ fixed), a decided PE (Δ̂ exact), or
        // an undecided PE of this block — whose optimistic value was just
        // written to scratch (topological order guarantees it). Variables
        // bind in index order, so the undecided ones lie past bound_depth.
        const double value = e->pred_var > bound_depth
                                 ? scratch_[static_cast<size_t>(e->from)]
                                 : delta_row[e->from];
        inflow_delta += e->selectivity * value;
        inflow_fic += value;
      }
      scratch_[static_cast<size_t>(var.pe)] = inflow_delta;  // φ = 1
      rest += inflow_fic;
    }
    return bound_var.prob * rest;
  }

  void NotePrune(PruningStats* pruning, int depth) {
    if (seeder_) return;
    ++pruning->count;
    pruning->total_height += static_cast<uint64_t>(problem_.num_vars - depth);
  }

  void RecordSolution() {
    // When a pruning rule is disabled (ablation), the constraint it fronts
    // still holds — it just gets checked here at the leaf instead of early.
    if (!problem_.options.enable_ic_pruning &&
        fic_partial_ < problem_.fic_requirement - kEpsilon) {
      return;
    }
    if (!problem_.options.enable_cpu_pruning) {
      const size_t num_hosts = problem_.capacity.size();
      for (size_t i = 0; i < loads_.size(); ++i) {
        if (loads_[i] >= problem_.capacity[i % num_hosts] - kEpsilon) return;
      }
    }
    ++stats_.solutions_found;
    const double cost = cost_lb_;  // exact: every variable is bound
    const double elapsed = shared_->watch.ElapsedSeconds();
    if (!seeder_ && !shared_->first_recorded) {
      shared_->first_recorded = true;
      shared_->first_cost = cost;
      shared_->first_seconds = elapsed;
    }
    if (!shared_->found_any || cost < shared_->best_cost - kEpsilon) {
      shared_->found_any = true;
      shared_->best_cost = cost;
      shared_->best_fic = fic_partial_;
      shared_->best_assignment.assign(assignment_.begin(), assignment_.end());
      shared_->best_seconds = elapsed;
    }
  }

  const Problem& problem_;
  SharedState* shared_;
  bool seeder_;
  /// Scratch Δ̃ values for the tight IC bound; indexed by component, only
  /// entries written during the current bound computation are read.
  std::vector<double> scratch_;
  FtSearchStats stats_;
  std::vector<int8_t> assignment_;
  std::vector<uint8_t> mask_;
  std::vector<double> bound_fic_;
  std::vector<uint8_t> zero_;
  std::vector<double> delta_hat_;
  std::vector<double> loads_;
  std::vector<TrailEntry> trail_;
  std::vector<size_t> trail_frames_;
  double cost_lb_;
  double fic_partial_ = 0.0;
  /// Stop checks the next budget charge covers, and how many of them are
  /// still to come.
  uint64_t charge_ = 0;
  uint64_t checks_until_charge_ = 0;
};

Result<Problem> BuildProblem(const model::ApplicationGraph& graph,
                             const model::InputSpace& space,
                             const model::ExpectedRates& rates,
                             const model::ReplicaPlacement& placement,
                             const model::Cluster& cluster,
                             const FtSearchOptions& options) {
  if (!graph.validated()) {
    return Status::FailedPrecondition("graph must be validated before FT-Search");
  }
  if (placement.replication_factor() != 2) {
    return Status::Unimplemented(
        StrFormat("FT-Search supports twofold replication only (k = 2), got k = %d",
                  placement.replication_factor()));
  }
  LAAR_RETURN_IF_ERROR(placement.Validate(cluster));
  if (options.ic_requirement < 0.0 || options.ic_requirement > 1.0) {
    return Status::InvalidArgument(
        StrFormat("IC requirement %g outside [0, 1]", options.ic_requirement));
  }
  for (model::ComponentId pe : graph.Pes()) {
    if (!placement.IsAssigned(pe)) {
      return Status::FailedPrecondition(StrFormat("PE %d is not placed", pe));
    }
  }

  Problem problem;
  problem.graph = &graph;
  problem.space = &space;
  problem.rates = &rates;
  problem.placement = &placement;
  problem.options = options;
  problem.num_components = graph.num_components();

  problem.capacity.reserve(cluster.num_hosts());
  for (const model::Host& host : cluster.hosts()) {
    problem.capacity.push_back(host.capacity_cycles_per_sec);
  }

  // Variable order: configurations sorted most-CPU-hungry first (§4.5
  // heuristic), PEs in topological order within each configuration (the
  // partial-IC computation requires it).
  std::vector<model::ConfigId> config_order;
  for (model::ConfigId c = 0; c < space.num_configs(); ++c) config_order.push_back(c);
  if (options.hungriest_config_first) {
    std::vector<double> demand_of_config(static_cast<size_t>(space.num_configs()), 0.0);
    for (model::ConfigId c = 0; c < space.num_configs(); ++c) {
      for (model::ComponentId pe : graph.Pes()) {
        demand_of_config[static_cast<size_t>(c)] += rates.CpuDemand(graph, pe, c);
      }
    }
    std::stable_sort(config_order.begin(), config_order.end(),
                     [&demand_of_config](model::ConfigId a, model::ConfigId b) {
                       return demand_of_config[static_cast<size_t>(a)] >
                              demand_of_config[static_cast<size_t>(b)];
                     });
  }

  const std::vector<model::ComponentId> pes_topo = graph.PesInTopologicalOrder();
  // Variable position of each (configuration, component); -1 for sources
  // and sinks.
  std::vector<int> var_at(static_cast<size_t>(space.num_configs()) * problem.num_components,
                          -1);
  auto var_of = [&](model::ConfigId c, model::ComponentId id) -> int& {
    return var_at[static_cast<size_t>(c) * problem.num_components + static_cast<size_t>(id)];
  };
  for (model::ConfigId c : config_order) {
    for (model::ComponentId pe : pes_topo) {
      Variable var;
      var.config = c;
      var.pe = pe;
      var.demand = rates.CpuDemand(graph, pe, c);
      var.prob = space.Probability(c);
      var.cost_weight = var.prob * var.demand;
      var.arrival_ff = rates.ArrivalRate(graph, pe, c);
      var.host0 = placement.HostOf(pe, 0);
      var.host1 = placement.HostOf(pe, 1);
      var_of(c, pe) = static_cast<int>(problem.vars.size());
      problem.vars.push_back(var);
      problem.base_cost_lb += var.cost_weight;
    }
  }
  problem.num_vars = static_cast<int>(problem.vars.size());

  problem.succ_vars.resize(problem.vars.size());
  for (size_t d = 0; d < problem.vars.size(); ++d) {
    Variable& var = problem.vars[d];
    var.edges_begin = static_cast<uint32_t>(problem.edges.size());
    for (size_t edge_index : graph.IncomingEdges(var.pe)) {
      const model::Edge& e = graph.edges()[edge_index];
      problem.edges.push_back(VarEdge{var_of(var.config, e.from), e.from, e.selectivity});
    }
    var.edges_end = static_cast<uint32_t>(problem.edges.size());
    for (size_t edge_index : graph.OutgoingEdges(var.pe)) {
      const model::Edge& e = graph.edges()[edge_index];
      if (graph.IsPe(e.to)) problem.succ_vars[d].push_back(var_of(var.config, e.to));
    }
  }

  const int pes_per_block = static_cast<int>(pes_topo.size());
  problem.block_end.resize(static_cast<size_t>(problem.num_vars));
  for (int d = 0; d < problem.num_vars; ++d) {
    problem.block_end[static_cast<size_t>(d)] = (d / pes_per_block + 1) * pes_per_block;
  }

  problem.suffix_ub.assign(static_cast<size_t>(problem.num_vars) + 1, 0.0);
  for (int d = problem.num_vars - 1; d >= 0; --d) {
    const Variable& var = problem.vars[static_cast<size_t>(d)];
    problem.suffix_ub[static_cast<size_t>(d)] =
        problem.suffix_ub[static_cast<size_t>(d) + 1] + var.prob * var.arrival_ff;
  }
  problem.bic_per_sec = problem.suffix_ub[0];
  problem.fic_requirement = options.ic_requirement * problem.bic_per_sec;
  return problem;
}

/// A quick feasible-by-construction starting point: everything replicated,
/// then — per configuration, from the sinks upward — one replica of a PE is
/// deactivated (the one on the currently most-loaded of its two hosts)
/// until no host is overloaded. Deactivating downstream-first sacrifices
/// the least internal completeness, since an upstream deactivation zeroes
/// its whole pessimistic-model subtree.
std::vector<int> GreedySeedAssignment(const Problem& problem) {
  std::vector<int> values(static_cast<size_t>(problem.num_vars), kBoth);
  const size_t num_hosts = problem.capacity.size();
  for (int start = 0; start < problem.num_vars;) {
    const int end = problem.block_end[static_cast<size_t>(start)];
    std::vector<double> load(num_hosts, 0.0);
    for (int d = start; d < end; ++d) {
      const Variable& var = problem.vars[static_cast<size_t>(d)];
      load[static_cast<size_t>(var.host0)] += var.demand;
      load[static_cast<size_t>(var.host1)] += var.demand;
    }
    auto overloaded = [&] {
      for (size_t h = 0; h < num_hosts; ++h) {
        if (load[h] >= problem.capacity[h] - kEpsilon) return true;
      }
      return false;
    };
    for (int d = end - 1; d >= start && overloaded(); --d) {
      const Variable& var = problem.vars[static_cast<size_t>(d)];
      if (load[static_cast<size_t>(var.host0)] >= load[static_cast<size_t>(var.host1)]) {
        values[static_cast<size_t>(d)] = kOnly1;
        load[static_cast<size_t>(var.host0)] -= var.demand;
      } else {
        values[static_cast<size_t>(d)] = kOnly0;
        load[static_cast<size_t>(var.host1)] -= var.demand;
      }
    }
    start = end;
  }
  return values;
}

strategy::ActivationStrategy AssignmentToStrategy(const Problem& problem,
                                                  const std::vector<int8_t>& assignment) {
  strategy::ActivationStrategy out(problem.num_components, 2,
                                   problem.space->num_configs());
  for (int d = 0; d < problem.num_vars; ++d) {
    const Variable& var = problem.vars[static_cast<size_t>(d)];
    const int value = assignment[static_cast<size_t>(d)];
    out.SetActive(var.pe, 0, var.config, value != kOnly1);
    out.SetActive(var.pe, 1, var.config, value != kOnly0);
  }
  return out;
}

}  // namespace

const char* SearchOutcomeName(SearchOutcome outcome) {
  switch (outcome) {
    case SearchOutcome::kOptimal:
      return "BST";
    case SearchOutcome::kFeasible:
      return "SOL";
    case SearchOutcome::kInfeasible:
      return "NUL";
    case SearchOutcome::kTimeout:
      return "TMO";
  }
  return "?";
}

void FtSearchStats::MergeFrom(const FtSearchStats& other) {
  nodes_explored += other.nodes_explored;
  solutions_found += other.solutions_found;
  cpu.count += other.cpu.count;
  cpu.total_height += other.cpu.total_height;
  compl_.count += other.compl_.count;
  compl_.total_height += other.compl_.total_height;
  cost.count += other.cost.count;
  cost.total_height += other.cost.total_height;
  dom.count += other.dom.count;
  dom.total_height += other.dom.total_height;
}

std::string FtSearchProgress::ToString() const {
  std::string line = StrFormat(
      "t=%.1fs nodes=%llu sol=%llu", elapsed_seconds,
      static_cast<unsigned long long>(nodes_explored),
      static_cast<unsigned long long>(solutions_found));
  if (has_incumbent) {
    line += StrFormat(" best=%.6g ic=%.4f", incumbent_cost, incumbent_ic);
  }
  line += StrFormat(" prunes[cpu=%llu compl=%llu cost=%llu dom=%llu]",
                    static_cast<unsigned long long>(cpu_prunes),
                    static_cast<unsigned long long>(compl_prunes),
                    static_cast<unsigned long long>(cost_prunes),
                    static_cast<unsigned long long>(dom_prunes));
  return line;
}

void PublishTo(obs::MetricsRegistry* registry, const FtSearchStats& stats,
               const obs::MetricsRegistry::Labels& labels) {
  if (registry == nullptr) return;
  auto count = [&](const char* name, uint64_t value,
                   const obs::MetricsRegistry::Labels& with) {
    if (obs::Counter* c = registry->GetCounter(name, with)) {
      c->Increment(static_cast<double>(value));
    }
  };
  count("ftsearch_nodes_explored", stats.nodes_explored, labels);
  count("ftsearch_solutions_found", stats.solutions_found, labels);
  const std::pair<const char*, const PruningStats*> rules[] = {
      {"cpu", &stats.cpu}, {"compl", &stats.compl_},
      {"cost", &stats.cost}, {"dom", &stats.dom}};
  for (const auto& [rule, pruning] : rules) {
    obs::MetricsRegistry::Labels with = labels;
    with.emplace_back("rule", rule);
    count("ftsearch_prunes", pruning->count, with);
    count("ftsearch_pruned_height", pruning->total_height, with);
  }
}

std::string FtSearchResult::ToString() const {
  return StrFormat(
      "%s cost=%.6g ic=%.4f first_cost=%.6g first_t=%.3fs best_t=%.3fs total_t=%.3fs "
      "nodes=%llu sol=%llu prunes[cpu=%llu compl=%llu cost=%llu dom=%llu]",
      SearchOutcomeName(outcome), best_cost, best_ic, first_solution_cost,
      first_solution_seconds, best_solution_seconds, total_seconds,
      static_cast<unsigned long long>(stats.nodes_explored),
      static_cast<unsigned long long>(stats.solutions_found),
      static_cast<unsigned long long>(stats.cpu.count),
      static_cast<unsigned long long>(stats.compl_.count),
      static_cast<unsigned long long>(stats.cost.count),
      static_cast<unsigned long long>(stats.dom.count));
}

Result<FtSearchResult> RunFtSearch(const model::ApplicationGraph& graph,
                                   const model::InputSpace& space,
                                   const model::ExpectedRates& rates,
                                   const model::ReplicaPlacement& placement,
                                   const model::Cluster& cluster,
                                   const FtSearchOptions& options) {
  LAAR_ASSIGN_OR_RETURN(Problem problem,
                        BuildProblem(graph, space, rates, placement, cluster, options));

  SharedState shared;
  shared.deadline = options.time_limit_seconds > 0.0
                        ? Deadline::After(options.time_limit_seconds)
                        : Deadline::Infinite();
  shared.next_progress = std::max<uint64_t>(1, options.progress_interval_nodes);

  FtSearchResult result;
  if (options.seed_greedy && problem.num_vars > 0) {
    // The seed binds through a throwaway context so every constraint is
    // verified; a successful full bind records it as the incumbent.
    SearchContext seeder(problem, &shared, /*seeder=*/true);
    if (seeder.BindPrefix(GreedySeedAssignment(problem))) seeder.RecordIfComplete();
    result.stats.MergeFrom(seeder.stats());
  }
  SearchContext context(problem, &shared);
  context.Dfs(0);
  result.stats.MergeFrom(context.stats());
  if (options.progress) options.progress(SnapshotProgress(problem, shared, result.stats));

  result.total_seconds = shared.watch.ElapsedSeconds();
  if (shared.found_any) {
    result.outcome = shared.timed_out ? SearchOutcome::kFeasible : SearchOutcome::kOptimal;
    result.strategy = AssignmentToStrategy(problem, shared.best_assignment);
    result.best_cost = shared.best_cost;
    result.best_ic =
        problem.bic_per_sec <= 0.0 ? 1.0 : shared.best_fic / problem.bic_per_sec;
    result.first_solution_cost = shared.first_cost;
    result.first_solution_seconds = shared.first_seconds;
    result.best_solution_seconds = shared.best_seconds;
  } else {
    result.outcome = shared.timed_out ? SearchOutcome::kTimeout : SearchOutcome::kInfeasible;
  }
  return result;
}

}  // namespace laar::ftsearch
