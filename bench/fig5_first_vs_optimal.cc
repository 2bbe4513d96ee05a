// Reproduces Fig. 5: on instances solved to proven optimality,
//  (a) the distribution of cost(first solution) / cost(optimum)
//      — paper: positively skewed, mean 1.057;
//  (b) the distribution of time(first solution) / time(optimum found)
//      — paper: mean 0.37, i.e. a first feasible solution arrives much
//        earlier than the optimum.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/search_corpus.h"
#include "laar/common/stats.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 20);
  const double time_limit = flags.GetDouble("time-limit", 2.0);
  const uint64_t seed = flags.GetUint64("seed", 500);
  flags.Finish();

  laar::bench::PrintHeader("Fig. 5", "first solution vs optimum (cost and time ratios)",
                           "cost ratio skewed right with mean slightly above 1; "
                           "time ratio well below 1");

  laar::SampleStats cost_ratio;
  laar::SampleStats time_ratio;
  const auto corpus = laar::bench::GenerateSearchCorpus(num_apps, seed);
  // The figure measures the *search's own* first solution, so the greedy
  // incumbent seeding is disabled here.
  laar::ftsearch::FtSearchOptions base;
  base.seed_greedy = false;
  for (double ic : {0.5, 0.6, 0.7}) {
    for (const auto& instance : corpus) {
      auto run = laar::bench::SearchInstanceAt(instance, ic, time_limit, base);
      if (!run.ok()) continue;
      if (run->outcome != laar::ftsearch::SearchOutcome::kOptimal) continue;
      if (run->best_cost <= 0.0 || run->first_solution_cost <= 0.0) continue;
      cost_ratio.Add(run->first_solution_cost / run->best_cost);
      // Time to the optimum can be ~0 for trivially solved instances; use a
      // floor of one microsecond to keep ratios finite.
      const double best_t = std::max(run->best_solution_seconds, 1e-6);
      const double first_t = std::max(run->first_solution_seconds, 1e-7);
      time_ratio.Add(std::min(first_t / best_t, 1.0));
    }
  }

  std::printf("\n(a) cost(first)/cost(optimal), n=%zu, mean=%.3f\n", cost_ratio.count(),
              cost_ratio.mean());
  laar::Histogram cost_hist(1.0, 2.0, 10);
  for (double v : cost_ratio.samples()) cost_hist.Add(v);
  std::printf("%s", cost_hist.ToString().c_str());

  std::printf("\n(b) time(first)/time(optimal), n=%zu, mean=%.3f\n", time_ratio.count(),
              time_ratio.mean());
  laar::Histogram time_hist(0.0, 1.0 + 1e-9, 10);
  for (double v : time_ratio.samples()) time_hist.Add(v);
  std::printf("%s", time_hist.ToString().c_str());
  return 0;
}
