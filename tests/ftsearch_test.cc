#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/metrics/cost.h"
#include "laar/metrics/failure_model.h"
#include "laar/metrics/ic.h"

namespace laar::ftsearch {
namespace {

using model::ApplicationGraph;
using model::Cluster;
using model::ComponentId;
using model::ExpectedRates;
using model::InputSpace;
using model::ReplicaPlacement;
using model::SourceRateSet;

/// The Fig. 1 pipeline: IC and cost have closed forms, so the optimum is
/// checkable by hand.
struct Fixture {
  ApplicationGraph graph;
  InputSpace space;
  ExpectedRates rates;
  Cluster cluster = Cluster::Homogeneous(2, 1e9);
  ReplicaPlacement placement{0, 2};
  ComponentId source, pe0, pe1, sink;

  Fixture() {
    source = graph.AddSource("s");
    pe0 = graph.AddPe("p0");
    pe1 = graph.AddPe("p1");
    sink = graph.AddSink("k");
    EXPECT_TRUE(graph.AddEdge(source, pe0, 1.0, 1e8).ok());
    EXPECT_TRUE(graph.AddEdge(pe0, pe1, 1.0, 1e8).ok());
    EXPECT_TRUE(graph.AddEdge(pe1, sink, 1.0, 0.0).ok());
    EXPECT_TRUE(graph.Validate().ok());
    SourceRateSet r;
    r.source = source;
    r.rates = {4.0, 8.0};
    r.probabilities = {0.8, 0.2};
    EXPECT_TRUE(space.AddSource(r).ok());
    rates = *ExpectedRates::Compute(graph, space);
    placement = ReplicaPlacement(graph.num_components(), 2);
    EXPECT_TRUE(placement.Assign(pe0, 0, 0).ok());
    EXPECT_TRUE(placement.Assign(pe0, 1, 1).ok());
    EXPECT_TRUE(placement.Assign(pe1, 0, 0).ok());
    EXPECT_TRUE(placement.Assign(pe1, 1, 1).ok());
  }

  Result<FtSearchResult> Search(FtSearchOptions options) const {
    return RunFtSearch(graph, space, rates, placement, cluster, options);
  }
};

TEST(FtSearchTest, FindsOptimalForPipeline) {
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 0.6;
  Result<FtSearchResult> result = f.Search(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, SearchOutcome::kOptimal);
  ASSERT_TRUE(result->strategy.has_value());
  // Optimum: both replicas active at Low (IC needs it), single replicas at
  // High (CPU needs it). Cost = 0.8*2*(4e8+4e8) + 0.2*(8e8+8e8) = 1.6e9.
  EXPECT_NEAR(result->best_cost, 1.6e9, 1.0);
  EXPECT_NEAR(result->best_ic, 2.0 / 3.0, 1e-9);
  EXPECT_TRUE(metrics::CheckStrategyConstraints(f.graph, f.space, f.rates, f.placement,
                                                *result->strategy, f.cluster, 0.6)
                  .ok());
}

TEST(FtSearchTest, ReportedCostAndIcMatchMetricsModule) {
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 0.5;
  Result<FtSearchResult> result = f.Search(options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->strategy.has_value());
  const double cost = metrics::CostPerSecond(f.graph, f.space, f.rates, f.placement,
                                             *result->strategy);
  EXPECT_NEAR(cost, result->best_cost, 1e-6 * cost);
  metrics::IcCalculator calc(f.graph, f.space, f.rates);
  metrics::PessimisticFailureModel pessimistic;
  EXPECT_NEAR(calc.InternalCompleteness(*result->strategy, pessimistic), result->best_ic,
              1e-9);
}

TEST(FtSearchTest, InfeasibleIcGivesNul) {
  Fixture f;
  FtSearchOptions options;
  // IC 1.0 requires both replicas active in High, which overloads: NUL.
  options.ic_requirement = 1.0;
  Result<FtSearchResult> result = f.Search(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, SearchOutcome::kInfeasible);
  EXPECT_FALSE(result->strategy.has_value());
}

TEST(FtSearchTest, LowIcStillKeepsCoverage) {
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 0.0;
  Result<FtSearchResult> result = f.Search(options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcome, SearchOutcome::kOptimal);
  // With no IC requirement the optimum is single-replica everywhere:
  // cost = 0.8*(8e8) + 0.2*(1.6e9) = 0.96e9.
  EXPECT_NEAR(result->best_cost, 0.96e9, 1.0);
  EXPECT_TRUE(result->strategy->CheckCoverage(f.graph).ok());
}

TEST(FtSearchTest, CostMonotoneInIcRequirement) {
  Fixture f;
  double previous = -1.0;
  for (double ic : {0.0, 0.3, 0.5, 0.6, 2.0 / 3.0}) {
    FtSearchOptions options;
    options.ic_requirement = ic;
    Result<FtSearchResult> result = f.Search(options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->outcome, SearchOutcome::kOptimal) << "ic=" << ic;
    EXPECT_GE(result->best_cost, previous) << "ic=" << ic;
    previous = result->best_cost;
  }
}

TEST(FtSearchTest, NodeLimitYieldsTimeoutClassification) {
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 0.6;
  options.node_limit = 1;  // below the first stop-check stride
  Result<FtSearchResult> result = f.Search(options);
  ASSERT_TRUE(result.ok());
  // With an immediate abort the search either got lucky (found something
  // before the first check) or reports TMO; both carry the timed-out flag.
  EXPECT_TRUE(result->outcome == SearchOutcome::kTimeout ||
              result->outcome == SearchOutcome::kFeasible);
}

TEST(FtSearchTest, RejectsBadInputs) {
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 1.5;
  EXPECT_FALSE(f.Search(options).ok());

  // k != 2 unsupported.
  ReplicaPlacement k3(f.graph.num_components(), 3);
  FtSearchOptions ok_options;
  EXPECT_FALSE(
      RunFtSearch(f.graph, f.space, f.rates, k3, f.cluster, ok_options).ok());

  // Unplaced PEs rejected.
  ReplicaPlacement unplaced(f.graph.num_components(), 2);
  EXPECT_FALSE(
      RunFtSearch(f.graph, f.space, f.rates, unplaced, f.cluster, ok_options).ok());
}

TEST(FtSearchTest, PruningAblationsPreserveTheOptimum) {
  Fixture f;
  FtSearchOptions base;
  base.ic_requirement = 0.6;
  Result<FtSearchResult> reference = f.Search(base);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->outcome, SearchOutcome::kOptimal);

  for (int disabled = 0; disabled < 7; ++disabled) {
    FtSearchOptions options = base;
    options.enable_cpu_pruning = disabled != 0;
    options.enable_ic_pruning = disabled != 1;
    options.enable_cost_pruning = disabled != 2;
    options.enable_dom_propagation = disabled != 3;
    options.try_both_first = disabled != 4;
    options.tight_ic_bound = disabled != 5;
    options.seed_greedy = disabled != 6;
    Result<FtSearchResult> result = f.Search(options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->outcome, SearchOutcome::kOptimal) << "ablation " << disabled;
    EXPECT_NEAR(result->best_cost, reference->best_cost, 1.0) << "ablation " << disabled;
    EXPECT_NEAR(result->best_ic, reference->best_ic, 1e-9) << "ablation " << disabled;
  }
}

TEST(FtSearchTest, StatsCountNodesAndPrunes) {
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 0.6;
  Result<FtSearchResult> result = f.Search(options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.nodes_explored, 0u);
  EXPECT_GT(result->stats.solutions_found, 0u);
  // The CPU constraint must fire somewhere: SR-in-High branches overload.
  EXPECT_GT(result->stats.cpu.count, 0u);
  EXPECT_GT(result->stats.cpu.MeanHeight(), 0.0);
}

TEST(FtSearchTest, NumThreadsDoesNotChangeTheSearch) {
  // FT-Search is serial: `num_threads` is a no-op, so four threads must
  // return exactly what one does. The instance is Fig. 9's seed 10002 at
  // L.5 under the corpus budget, where a root-splitting parallel search
  // stopped on its greedy seed (cost 8.580e9) while the serial search
  // found 8.195e9.
  appgen::GeneratorOptions generator;
  generator.num_pes = 24;
  generator.num_hosts = 12;
  generator.high_overload_max = 1.15;
  Result<appgen::GeneratedApplication> app = appgen::GenerateApplication(generator, 10002);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  auto rates = ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
  ASSERT_TRUE(rates.ok());
  auto search = [&](int num_threads) {
    FtSearchOptions options;
    options.ic_requirement = 0.5;
    options.time_limit_seconds = 0.0;
    options.node_limit = 2000000;
    options.num_threads = num_threads;
    return RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                       app->placement, app->cluster, options);
  };
  const Result<FtSearchResult> one = search(1);
  const Result<FtSearchResult> four = search(4);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(four->outcome, one->outcome);
  // Bit equality, not a tolerance: the same nodes in the same order.
  EXPECT_EQ(std::bit_cast<uint64_t>(four->best_cost), std::bit_cast<uint64_t>(one->best_cost))
      << four->best_cost << " vs " << one->best_cost;
  EXPECT_EQ(std::bit_cast<uint64_t>(four->best_ic), std::bit_cast<uint64_t>(one->best_ic));
  EXPECT_EQ(std::bit_cast<uint64_t>(four->first_solution_cost),
            std::bit_cast<uint64_t>(one->first_solution_cost));
  ASSERT_TRUE(one->strategy.has_value());
  ASSERT_TRUE(four->strategy.has_value());
  EXPECT_EQ(four->strategy->ToJson().Dump(), one->strategy->ToJson().Dump());
  const FtSearchStats& a = one->stats;
  const FtSearchStats& b = four->stats;
  EXPECT_EQ(b.nodes_explored, a.nodes_explored);
  EXPECT_EQ(b.solutions_found, a.solutions_found);
  const std::pair<const PruningStats*, const PruningStats*> rules[] = {
      {&a.cpu, &b.cpu}, {&a.compl_, &b.compl_}, {&a.cost, &b.cost}, {&a.dom, &b.dom}};
  for (const auto& [serial, threaded] : rules) {
    EXPECT_EQ(threaded->count, serial->count);
    EXPECT_EQ(threaded->total_height, serial->total_height);
  }
}

TEST(FtSearchTest, GreedySeedMakesTimeoutsFeasible) {
  // With an immediate node budget, the seeded incumbent is still returned
  // as a feasible (SOL) strategy; without seeding the run is a bare TMO.
  Fixture f;
  FtSearchOptions options;
  options.ic_requirement = 0.6;
  options.node_limit = 1;

  options.seed_greedy = true;
  Result<FtSearchResult> seeded = f.Search(options);
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded->outcome, SearchOutcome::kFeasible);
  ASSERT_TRUE(seeded->strategy.has_value());
  EXPECT_TRUE(metrics::CheckStrategyConstraints(f.graph, f.space, f.rates, f.placement,
                                                *seeded->strategy, f.cluster, 0.6)
                  .ok());

  options.seed_greedy = false;
  Result<FtSearchResult> bare = f.Search(options);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->outcome, SearchOutcome::kTimeout);
}

TEST(FtSearchTest, TightAndLooseIcBoundsAgreeOnRandomApps) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 8;
  generator.num_hosts = 4;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Result<appgen::GeneratedApplication> app =
        appgen::GenerateApplication(generator, seed);
    ASSERT_TRUE(app.ok());
    auto rates =
        ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
    ASSERT_TRUE(rates.ok());
    FtSearchOptions tight;
    tight.ic_requirement = 0.55;
    FtSearchOptions loose = tight;
    loose.tight_ic_bound = false;
    auto a = RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                         app->placement, app->cluster, tight);
    auto b = RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                         app->placement, app->cluster, loose);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->outcome, b->outcome) << "seed=" << seed;
    if (a->strategy.has_value() && b->strategy.has_value()) {
      EXPECT_NEAR(a->best_cost, b->best_cost, 1e-6 * a->best_cost) << "seed=" << seed;
    }
    // The tight bound never explores more nodes than the loose one.
    EXPECT_LE(a->stats.nodes_explored, b->stats.nodes_explored) << "seed=" << seed;
  }
}

// --------------------------------------------------------------------------
// Trajectory golden: the explored tree itself, not just the optimum. Each
// search contributes its outcome, incumbent bits, node and solution counts
// and every rule's prune count and height, under node budgets around the
// 512-check stride, so any change to which nodes are visited, in what order,
// or where a budget stops the search changes a hash. Rerun with
// LAAR_PRINT_HASHES=1 to print the observed hashes.
// --------------------------------------------------------------------------

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct TrajectoryApp {
  int num_pes;
  int num_hosts;
  int num_sources;
  uint64_t seed;
};

// 6 to 24 PEs; the two-source app has four input configurations, the
// others two.
const TrajectoryApp kTrajectoryApps[] = {
    {6, 3, 1, 15}, {12, 6, 1, 6}, {16, 8, 2, 4}, {24, 12, 1, 10001}};

/// One leg of the golden: the options it changes from the defaults, and
/// one hash per app.
struct TrajectoryGolden {
  const char* leg;
  bool tight_ic_bound;
  bool try_both_first;
  uint64_t hashes[std::size(kTrajectoryApps)];
};

// Captured before the search's budget checks, edge lists and COMPL
// remainder were restructured; those changes must reproduce them.
const TrajectoryGolden kTrajectoryGoldens[] = {
    {"default", true, true,
     {0x430eaa08968ac389ULL, 0x69d1ed1ea3bfba04ULL, 0xe889c330ecfa4c80ULL,
      0x25e94cdcb9cae56bULL}},
    {"loose_ic_bound", false, true,
     {0x270b84f80c123927ULL, 0x7f641d8cad2a6440ULL, 0x9a9dc1059dc29802ULL,
      0x91391a5e02ab6f77ULL}},
    {"single_first", true, false,
     {0xc97e0750da631a40ULL, 0xdaab95d13b8ccd41ULL, 0x7ed1eabd0b4b01dbULL,
      0xe5201cbfc570602eULL}},
};

/// Hashes every search of one app at IC 0.5 / 0.7 / 0.9 and node limits
/// 1, 512, 513 and 20000, with `base`'s other options.
uint64_t TrajectoryHash(const TrajectoryApp& spec, const FtSearchOptions& base) {
  appgen::GeneratorOptions generator;
  generator.num_pes = spec.num_pes;
  generator.num_hosts = spec.num_hosts;
  generator.num_sources = spec.num_sources;
  Result<appgen::GeneratedApplication> app = appgen::GenerateApplication(generator, spec.seed);
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  if (!app.ok()) return 0;
  auto rates = ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
  EXPECT_TRUE(rates.ok());
  if (!rates.ok()) return 0;
  std::string digest;
  for (double ic : {0.5, 0.7, 0.9}) {
    for (uint64_t node_limit : {1u, 512u, 513u, 20000u}) {
      FtSearchOptions options = base;
      options.ic_requirement = ic;
      options.time_limit_seconds = 0.0;
      options.node_limit = node_limit;
      Result<FtSearchResult> result =
          RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                      app->placement, app->cluster, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return 0;
      const FtSearchStats& s = result->stats;
      char line[512];
      std::snprintf(line, sizeof line,
                    "%s %.17g %.17g %llu %llu cpu %llu %llu compl %llu %llu cost %llu %llu "
                    "dom %llu %llu\n",
                    SearchOutcomeName(result->outcome), result->best_cost, result->best_ic,
                    static_cast<unsigned long long>(s.nodes_explored),
                    static_cast<unsigned long long>(s.solutions_found),
                    static_cast<unsigned long long>(s.cpu.count),
                    static_cast<unsigned long long>(s.cpu.total_height),
                    static_cast<unsigned long long>(s.compl_.count),
                    static_cast<unsigned long long>(s.compl_.total_height),
                    static_cast<unsigned long long>(s.cost.count),
                    static_cast<unsigned long long>(s.cost.total_height),
                    static_cast<unsigned long long>(s.dom.count),
                    static_cast<unsigned long long>(s.dom.total_height));
      digest += line;
    }
  }
  return Fnv1a(digest);
}

TEST(FtSearchTest, SerialTrajectoriesMatchGoldens) {
  const bool print = std::getenv("LAAR_PRINT_HASHES") != nullptr;
  for (const TrajectoryGolden& golden : kTrajectoryGoldens) {
    FtSearchOptions options;
    options.tight_ic_bound = golden.tight_ic_bound;
    options.try_both_first = golden.try_both_first;
    uint64_t got[std::size(kTrajectoryApps)];
    for (size_t a = 0; a < std::size(kTrajectoryApps); ++a) {
      got[a] = TrajectoryHash(kTrajectoryApps[a], options);
    }
    if (print) {
      std::printf("    {\"%s\", %s, %s,\n     {0x%016llxULL, 0x%016llxULL, 0x%016llxULL,\n"
                  "      0x%016llxULL}},\n",
                  golden.leg, golden.tight_ic_bound ? "true" : "false",
                  golden.try_both_first ? "true" : "false",
                  static_cast<unsigned long long>(got[0]),
                  static_cast<unsigned long long>(got[1]),
                  static_cast<unsigned long long>(got[2]),
                  static_cast<unsigned long long>(got[3]));
      continue;
    }
    for (size_t a = 0; a < std::size(kTrajectoryApps); ++a) {
      EXPECT_EQ(got[a], golden.hashes[a])
          << golden.leg << " leg, " << kTrajectoryApps[a].num_pes << " PEs, seed "
          << kTrajectoryApps[a].seed;
    }
  }
}

TEST(FtSearchTest, OutcomeNames) {
  EXPECT_STREQ(SearchOutcomeName(SearchOutcome::kOptimal), "BST");
  EXPECT_STREQ(SearchOutcomeName(SearchOutcome::kFeasible), "SOL");
  EXPECT_STREQ(SearchOutcomeName(SearchOutcome::kInfeasible), "NUL");
  EXPECT_STREQ(SearchOutcomeName(SearchOutcome::kTimeout), "TMO");
}

// --------------------------------------------------------------------------
// Property sweep over generated applications: every solution FT-Search
// returns satisfies the full constraint system, and the promised IC is a
// certified lower bound.
// --------------------------------------------------------------------------

class FtSearchPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FtSearchPropertyTest, SolutionsSatisfyAllConstraints) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 10;
  generator.num_hosts = 5;
  Result<appgen::GeneratedApplication> app =
      appgen::GenerateApplication(generator, GetParam());
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  auto rates = ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
  ASSERT_TRUE(rates.ok());

  for (double ic : {0.4, 0.6}) {
    FtSearchOptions options;
    options.ic_requirement = ic;
    options.time_limit_seconds = 20.0;
    Result<FtSearchResult> result =
        RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                    app->placement, app->cluster, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!result->strategy.has_value()) continue;  // NUL is legitimate
    EXPECT_TRUE(metrics::CheckStrategyConstraints(
                    app->descriptor.graph, app->descriptor.input_space, *rates,
                    app->placement, *result->strategy, app->cluster, ic)
                    .ok())
        << "seed=" << GetParam() << " ic=" << ic;
    EXPECT_GE(result->best_ic, ic - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtSearchPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace laar::ftsearch
