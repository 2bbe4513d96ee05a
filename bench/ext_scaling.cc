// Extension: FT-Search scalability in the two axes of its 3^(|P|·|C|)
// search space — number of PEs and number of input configurations.
//
// The paper fixes |C| = 2 (one two-rate source); this bench also sweeps
// multi-source spaces (|C| = 2^sources) to show where exact search stops
// being practical and the SOL-within-budget regime begins.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/common/stopwatch.h"
#include "laar/exec/parallel.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/model/rates.h"

namespace {

struct InstanceResult {
  uint64_t nodes = 0;
  double seconds = 0.0;
  bool solved = false;
  bool proven = false;
};

void RunRow(int pes, int sources, int hosts, double ic, double time_limit,
            uint64_t seed_base, int jobs) {
  // Aggregate over a few instances for stability; give up after ~200 seeds.
  const auto kept = laar::CollectUsableSeeds<InstanceResult>(
      3, seed_base, jobs, 200,
      [pes, sources, hosts, ic,
       time_limit](uint64_t seed) -> std::optional<InstanceResult> {
        laar::appgen::GeneratorOptions generator;
        generator.num_pes = pes;
        generator.num_sources = sources;
        generator.num_hosts = hosts;
        generator.high_overload_max = 1.2;
        auto app = laar::appgen::GenerateApplication(generator, seed);
        if (!app.ok()) return std::nullopt;
        auto rates = laar::model::ExpectedRates::Compute(app->descriptor.graph,
                                                         app->descriptor.input_space);
        if (!rates.ok()) return std::nullopt;
        laar::ftsearch::FtSearchOptions options;
        options.ic_requirement = ic;
        options.time_limit_seconds = time_limit;
        auto result = laar::ftsearch::RunFtSearch(app->descriptor.graph,
                                                  app->descriptor.input_space, *rates,
                                                  app->placement, app->cluster, options);
        if (!result.ok()) return std::nullopt;
        InstanceResult out;
        out.nodes = result->stats.nodes_explored;
        out.seconds = result->total_seconds;
        out.solved = result->strategy.has_value();
        out.proven = result->outcome == laar::ftsearch::SearchOutcome::kOptimal ||
                     result->outcome == laar::ftsearch::SearchOutcome::kInfeasible;
        return out;
      });

  uint64_t nodes = 0;
  double seconds = 0.0;
  int solved = 0;
  int proven = 0;
  for (const auto& probe : kept) {
    nodes += probe.value.nodes;
    seconds += probe.value.seconds;
    if (probe.value.solved) ++solved;
    if (probe.value.proven) ++proven;
  }
  const int instances = static_cast<int>(kept.size());
  const int configs = 1 << sources;
  std::printf("%6d %8d %8d %10d %14llu %10.3f %8d/%d %8d/%d\n", pes, sources, configs,
              pes * configs, static_cast<unsigned long long>(nodes), seconds, solved,
              instances, proven, instances);
}

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const double ic = flags.GetDouble("ic", 0.5);
  const double time_limit = flags.GetDouble("time-limit", 3.0);
  const uint64_t seed = flags.GetUint64("seed", 64000);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader("Extension", "FT-Search scalability in |P| and |C|",
                           "nodes grow fast with |P|·|C|; proofs get rarer, feasible "
                           "solutions persist (greedy seed)");
  std::printf("%6s %8s %8s %10s %14s %10s %10s %10s\n", "PEs", "sources", "|C|",
              "vars", "nodes(sum)", "time(sum)", "solved", "proven");

  for (int pes : {6, 12, 18, 24}) {
    RunRow(pes, 1, 6, ic, time_limit, seed + static_cast<uint64_t>(pes), jobs);
  }
  for (int sources : {2, 3}) {
    RunRow(12, sources, 6, ic, time_limit, seed + 1000 + static_cast<uint64_t>(sources),
           jobs);
  }
  return 0;
}
