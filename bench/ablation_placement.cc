// Ablation (§6.iii): how much the replica placement matters to the optimal
// activation strategy, and what placement/activation co-optimization buys.
//
// For each application: FT-Search cost under (a) round-robin placement,
// (b) load-balanced placement, (c) balanced + hill-climbing local search
// over placements. Expectation: (b) <= (a) usually, (c) <= (b) always
// (the search never accepts a worsening move).

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/common/stats.h"
#include "laar/exec/parallel.h"
#include "laar/placement/local_search.h"
#include "laar/placement/placement_algorithms.h"

namespace {

struct PlacementRow {
  double balanced_cost = 0.0;
  double rr_cost = -1.0;        // -1: round-robin infeasible or placement failed
  bool rr_infeasible = false;   // feasible placement, infeasible search
  double improved_cost = -1.0;  // -1: local search found nothing feasible
  int moves = 0;
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 8);
  const double ic = flags.GetDouble("ic", 0.5);
  const uint64_t seed_base = flags.GetUint64("seed", 62000);
  const int jobs = laar::bench::JobsFromFlags(flags);
  const double time_limit = flags.GetDouble("time-limit", 1.0);
  const int iterations = flags.GetInt("iterations", 10);
  const int pes = flags.GetInt("pes", 12);
  const int hosts = flags.GetInt("hosts", 6);
  flags.Finish();

  laar::bench::PrintHeader("Ablation", "placement/activation interaction (§6.iii)",
                           "balanced beats round-robin; local search never loses to "
                           "its start");

  laar::SampleStats rr_over_balanced;
  laar::SampleStats improved_over_balanced;
  int rr_infeasible = 0;
  int improved_count = 0;

  const auto probe = [&](uint64_t seed) -> std::optional<PlacementRow> {
    laar::appgen::GeneratorOptions generator;
    generator.num_pes = pes;
    generator.num_hosts = hosts;
    generator.high_overload_max = 1.2;
    auto app = laar::appgen::GenerateApplication(generator, seed);
    if (!app.ok()) return std::nullopt;
    auto rates = laar::model::ExpectedRates::Compute(app->descriptor.graph,
                                                     app->descriptor.input_space);
    if (!rates.ok()) return std::nullopt;

    laar::ftsearch::FtSearchOptions search;
    search.ic_requirement = ic;
    search.time_limit_seconds = time_limit;

    // (b) balanced (the appgen default placement).
    auto balanced = laar::ftsearch::RunFtSearch(app->descriptor.graph,
                                                app->descriptor.input_space, *rates,
                                                app->placement, app->cluster, search);
    if (!balanced.ok() || !balanced->strategy.has_value()) return std::nullopt;
    PlacementRow row;
    row.balanced_cost = balanced->best_cost;

    // (a) round-robin.
    auto rr = laar::placement::PlaceRoundRobin(app->descriptor.graph, app->cluster, 2);
    if (rr.ok()) {
      auto result = laar::ftsearch::RunFtSearch(app->descriptor.graph,
                                                app->descriptor.input_space, *rates, *rr,
                                                app->cluster, search);
      if (result.ok() && result->strategy.has_value()) {
        row.rr_cost = result->best_cost;
      } else {
        row.rr_infeasible = true;
      }
    }

    // (c) local search from balanced.
    laar::placement::PlacementSearchOptions improve;
    improve.ic_requirement = ic;
    improve.max_iterations = iterations;
    improve.ftsearch_time_limit_seconds = time_limit;
    improve.seed = seed;
    auto improved = laar::placement::ImprovePlacement(
        app->descriptor.graph, app->descriptor.input_space, *rates, app->cluster,
        app->placement, improve);
    if (improved.ok() && improved->feasible) {
      row.improved_cost = improved->search.best_cost;
      row.moves = improved->accepted_moves;
    }
    return row;
  };

  std::printf("%-8s %14s %14s %14s %8s\n", "seed", "roundrobin", "balanced",
              "local-search", "moves");
  const auto kept = laar::CollectUsableSeeds<PlacementRow>(
      num_apps, seed_base, jobs, num_apps * 1000, probe,
      [](size_t, const laar::SeedProbe<PlacementRow>& p) {
        std::printf("%-8llu %14.5g %14.5g %14.5g %8d\n",
                    static_cast<unsigned long long>(p.seed), p.value.rr_cost,
                    p.value.balanced_cost, p.value.improved_cost, p.value.moves);
      });
  for (const auto& probe_result : kept) {
    const PlacementRow& row = probe_result.value;
    if (row.rr_cost >= 0.0) rr_over_balanced.Add(row.rr_cost / row.balanced_cost);
    if (row.rr_infeasible) ++rr_infeasible;
    if (row.improved_cost >= 0.0) {
      improved_over_balanced.Add(row.improved_cost / row.balanced_cost);
      ++improved_count;
    }
  }

  std::printf("\nround-robin / balanced cost ratio: mean %.3f (infeasible on %d apps)\n",
              rr_over_balanced.mean(), rr_infeasible);
  std::printf("local-search / balanced cost ratio: mean %.3f over %d apps "
              "(<= 1 by construction)\n",
              improved_over_balanced.mean(), improved_count);
  return 0;
}
