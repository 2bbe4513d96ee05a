// Ablation: FT-Search with each pruning strategy disabled in turn.
//
// Measures nodes explored and wall time on the same corpus; the optimum
// cost must be identical in every configuration (pruning is sound), while
// the explored-node count shows how much work each rule saves.

#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/common/stats.h"
#include "laar/exec/parallel.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/model/rates.h"

namespace {

struct Config {
  const char* name;
  void (*apply)(laar::ftsearch::FtSearchOptions*);
};

const Config kConfigs[] = {
    {"all-on", [](laar::ftsearch::FtSearchOptions*) {}},
    {"-CPU", [](laar::ftsearch::FtSearchOptions* o) { o->enable_cpu_pruning = false; }},
    {"-COMPL", [](laar::ftsearch::FtSearchOptions* o) { o->enable_ic_pruning = false; }},
    {"-COST", [](laar::ftsearch::FtSearchOptions* o) { o->enable_cost_pruning = false; }},
    {"-DOM",
     [](laar::ftsearch::FtSearchOptions* o) { o->enable_dom_propagation = false; }},
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 10);
  const double ic = flags.GetDouble("ic", 0.6);
  const double time_limit = flags.GetDouble("time-limit", 3.0);
  const uint64_t seed_base = flags.GetUint64("seed", 7000);
  const int jobs = laar::ResolveJobs(laar::bench::JobsFromFlags(flags));
  flags.Finish();

  laar::bench::PrintHeader("Ablation", "FT-Search pruning rules disabled one at a time",
                           "identical optima; more nodes without each rule");

  // Collect a corpus of solvable instances first so every configuration
  // sees the same problems (parallel over --jobs workers).
  struct Instance {
    laar::appgen::GeneratedApplication app;
    laar::model::ExpectedRates rates;
  };
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

  std::printf("%-8s %14s %14s %12s %10s\n", "config", "nodes(sum)", "prunes(sum)",
              "time(sum s)", "optima");
  std::vector<double> reference_costs;
  for (const Config& config : kConfigs) {
    struct PerInstance {
      uint64_t nodes = 0;
      uint64_t prunes = 0;
      double seconds = 0.0;
      bool ok = false;
      bool optimal = false;
      double cost = -1.0;
    };
    std::vector<PerInstance> results(instances.size());
    const auto run_one = [&](size_t i) {
      const Instance& instance = instances[i];
      laar::ftsearch::FtSearchOptions options;
      options.ic_requirement = ic;
      options.time_limit_seconds = time_limit;
      config.apply(&options);
      auto result = laar::ftsearch::RunFtSearch(
          instance.app.descriptor.graph, instance.app.descriptor.input_space,
          instance.rates, instance.app.placement, instance.app.cluster, options);
      if (!result.ok()) return;
      results[i].ok = true;
      results[i].nodes = result->stats.nodes_explored;
      results[i].prunes = result->stats.cpu.count + result->stats.compl_.count +
                          result->stats.cost.count + result->stats.dom.count;
      results[i].seconds = result->total_seconds;
      if (result->outcome == laar::ftsearch::SearchOutcome::kOptimal) {
        results[i].optimal = true;
        results[i].cost = result->best_cost;
      }
    };
    if (pool.has_value()) {
      pool->ParallelFor(instances.size(), run_one);
    } else {
      for (size_t i = 0; i < instances.size(); ++i) run_one(i);
    }
    uint64_t nodes = 0;
    uint64_t prunes = 0;
    double seconds = 0.0;
    int optima = 0;
    std::vector<double> costs;
    for (const PerInstance& r : results) {
      if (!r.ok) continue;
      nodes += r.nodes;
      prunes += r.prunes;
      seconds += r.seconds;
      if (r.optimal) ++optima;
      costs.push_back(r.cost);
    }
    std::printf("%-8s %14llu %14llu %12.3f %10d\n", config.name,
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(prunes), seconds, optima);
    if (reference_costs.empty()) {
      reference_costs = costs;
    } else {
      for (size_t i = 0; i < costs.size() && i < reference_costs.size(); ++i) {
        if (costs[i] >= 0.0 && reference_costs[i] >= 0.0 &&
            std::abs(costs[i] - reference_costs[i]) > 1e-6 * reference_costs[i]) {
          std::printf("  !! optimum mismatch on instance %zu: %g vs %g\n", i, costs[i],
                      reference_costs[i]);
        }
      }
    }
  }
  return 0;
}
