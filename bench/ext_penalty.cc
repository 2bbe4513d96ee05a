// Extension (§6.ii): the IC-vs-cost frontier under a violation penalty.
//
// Computes the hard-constrained (IC, cost) frontier once, then re-prices it
// under increasing penalty rates — showing how a provider would pick the
// operating point once IC violations carry a price rather than being a
// hard constraint. Expectation: the chosen point moves monotonically from
// cheap/low-IC to expensive/target-IC as the penalty rate grows.

#include <cstdio>
#include <optional>
#include <utility>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/exec/parallel.h"
#include "laar/ftsearch/penalty_sweep.h"
#include "laar/metrics/ic.h"

namespace {

struct SolvableInstance {
  laar::appgen::GeneratedApplication app;
  laar::model::ExpectedRates rates;
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const uint64_t seed_base = flags.GetUint64("seed", 61000);
  const double ic_target = flags.GetDouble("ic-target", 0.7);
  const double time_limit = flags.GetDouble("time-limit", 1.0);
  const int jobs = laar::bench::JobsFromFlags(flags);
  laar::appgen::GeneratorOptions generator;
  generator.num_pes = flags.GetInt("pes", 16);
  generator.num_hosts = flags.GetInt("hosts", 8);
  generator.high_overload_max = 1.2;
  const int grid_steps = flags.GetInt("grid", 7);
  flags.Finish();

  laar::bench::PrintHeader("Extension", "penalty-model operating points (§6.ii)",
                           "rising penalty rates move the optimum from cheap/low-IC "
                           "to expensive/target-IC");

  // Find an instance solvable at the target (one cheap solve per
  // candidate, fanned out over --jobs workers), then sweep its frontier
  // once.
  auto kept = laar::CollectUsableSeeds<SolvableInstance>(
      1, seed_base, jobs, 1 << 20,
      [&generator, ic_target,
       time_limit](uint64_t candidate_seed) -> std::optional<SolvableInstance> {
        auto candidate = laar::appgen::GenerateApplication(generator, candidate_seed);
        if (!candidate.ok()) return std::nullopt;
        auto candidate_rates = laar::model::ExpectedRates::Compute(
            candidate->descriptor.graph, candidate->descriptor.input_space);
        if (!candidate_rates.ok()) return std::nullopt;
        laar::ftsearch::FtSearchOptions probe;
        probe.ic_requirement = ic_target;
        probe.time_limit_seconds = time_limit;
        auto result = laar::ftsearch::RunFtSearch(candidate->descriptor.graph,
                                                  candidate->descriptor.input_space,
                                                  *candidate_rates, candidate->placement,
                                                  candidate->cluster, probe);
        if (!result.ok() || !result->strategy.has_value()) return std::nullopt;
        return SolvableInstance{std::move(*candidate), std::move(*candidate_rates)};
      });
  if (kept.empty()) {
    std::fprintf(stderr, "no solvable instance found near seed %llu\n",
                 static_cast<unsigned long long>(seed_base));
    return 1;
  }
  const uint64_t seed = kept.front().seed;
  laar::appgen::GeneratedApplication app = std::move(kept.front().value.app);
  laar::model::ExpectedRates rates = std::move(kept.front().value.rates);
  std::printf("application seed %llu, target IC %.2f\n\n",
              static_cast<unsigned long long>(seed), ic_target);

  laar::ftsearch::PenaltySweepOptions options;
  options.ic_target = ic_target;
  options.penalty_rate = 0.0;
  options.grid_steps = grid_steps;
  options.time_limit_seconds = time_limit;
  auto sweep = laar::ftsearch::SweepPenaltyFrontier(app.descriptor.graph,
                                                    app.descriptor.input_space, rates,
                                                    app.placement, app.cluster, options);
  sweep.status().CheckOK();

  std::printf("frontier (hard-constrained optima):\n");
  std::printf("%-8s %10s %14s\n", "level", "IC", "cost");
  for (const auto& point : sweep->frontier) {
    std::printf("%-8.3f %10.4f %14.5g\n", point.ic_level, point.achieved_ic, point.cost);
  }

  const laar::metrics::IcCalculator calculator(app.descriptor.graph,
                                               app.descriptor.input_space, rates);
  std::printf("\noperating point vs penalty rate (cycles per expected lost tuple):\n");
  std::printf("%-12s %10s %14s %14s\n", "penalty", "chosen IC", "cost", "cost+penalty");
  double previous_ic = -1.0;
  for (double rate : {0.0, 1e6, 3e6, 1e7, 1e8, 1e9}) {
    const int index = laar::ftsearch::SelectOperatingPoint(&sweep->frontier, ic_target,
                                                           rate, calculator.BestCase());
    if (index < 0) continue;
    const auto& best = sweep->frontier[static_cast<size_t>(index)];
    std::printf("%-12.3g %10.4f %14.5g %14.5g\n", rate, best.achieved_ic, best.cost,
                best.total);
    if (best.achieved_ic + 1e-9 < previous_ic) {
      std::printf("  !! operating point regressed — should be monotone\n");
    }
    previous_ic = best.achieved_ic;
  }
  return 0;
}
