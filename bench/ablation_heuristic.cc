// Ablation: FT-Search exploration-order heuristics (§4.5).
//
//  - hungriest-config-first on/off ("exploring the most resource hungry
//    configurations first improves execution time by making both the CPU
//    and IC constraints fail faster");
//  - both-replicas-first value ordering on/off.

#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/exec/parallel.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/model/rates.h"

namespace {

struct Instance {
  laar::appgen::GeneratedApplication app;
  laar::model::ExpectedRates rates;
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 10);
  const double ic = flags.GetDouble("ic", 0.6);
  const double time_limit = flags.GetDouble("time-limit", 3.0);
  const uint64_t seed_base = flags.GetUint64("seed", 8000);
  const int jobs = laar::ResolveJobs(laar::bench::JobsFromFlags(flags));
  flags.Finish();

  laar::bench::PrintHeader("Ablation", "FT-Search exploration-order heuristics",
                           "hungriest-config-first explores fewer nodes");

  // Collect the instance corpus (parallel over --jobs workers).
  auto kept = laar::CollectUsableSeeds<Instance>(
      num_apps, seed_base, jobs, num_apps * 1000,
      [](uint64_t seed) -> std::optional<Instance> {
        laar::appgen::GeneratorOptions generator;
        generator.num_pes = 10;
        generator.num_hosts = 5;
        auto app = laar::appgen::GenerateApplication(generator, seed);
        if (!app.ok()) return std::nullopt;
        auto rates = laar::model::ExpectedRates::Compute(app->descriptor.graph,
                                                         app->descriptor.input_space);
        if (!rates.ok()) return std::nullopt;
        return Instance{std::move(*app), std::move(*rates)};
      });
  std::vector<Instance> instances;
  instances.reserve(kept.size());
  for (auto& probe : kept) instances.push_back(std::move(probe.value));

  std::optional<laar::ThreadPool> pool;
  if (jobs > 1) pool.emplace(static_cast<size_t>(jobs));

  std::printf("%-28s %14s %12s %10s\n", "config", "nodes(sum)", "time(sum s)", "optima");
  for (const bool hungriest : {true, false}) {
    for (const bool both_first : {true, false}) {
      struct PerInstance {
        uint64_t nodes = 0;
        double seconds = 0.0;
        bool optimal = false;
      };
      std::vector<PerInstance> results(instances.size());
      const auto run_one = [&](size_t i) {
        const Instance& instance = instances[i];
        laar::ftsearch::FtSearchOptions options;
        options.ic_requirement = ic;
        options.time_limit_seconds = time_limit;
        options.hungriest_config_first = hungriest;
        options.try_both_first = both_first;
        auto result = laar::ftsearch::RunFtSearch(
            instance.app.descriptor.graph, instance.app.descriptor.input_space,
            instance.rates, instance.app.placement, instance.app.cluster, options);
        if (!result.ok()) return;
        results[i].nodes = result->stats.nodes_explored;
        results[i].seconds = result->total_seconds;
        results[i].optimal = result->outcome == laar::ftsearch::SearchOutcome::kOptimal;
      };
      if (pool.has_value()) {
        pool->ParallelFor(instances.size(), run_one);
      } else {
        for (size_t i = 0; i < instances.size(); ++i) run_one(i);
      }
      uint64_t nodes = 0;
      double seconds = 0.0;
      int optima = 0;
      for (const PerInstance& r : results) {
        nodes += r.nodes;
        seconds += r.seconds;
        if (r.optimal) ++optima;
      }
      std::printf("hungriest=%d both-first=%d     %14llu %12.3f %10d\n", hungriest,
                  both_first, static_cast<unsigned long long>(nodes), seconds, optima);
    }
  }
  return 0;
}
