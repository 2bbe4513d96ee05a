// Reproduces Fig. 4: types of FT-Search solutions as the IC constraint
// grows from 0.5 to 0.9 — (BST) proven optimum, (SOL) feasible at timeout,
// (NUL) proven infeasible, (TMO) timeout without a solution.
//
// Paper shape: NUL grows with the IC constraint; solved instances shrink;
// TMO stays a small fraction.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/search_corpus.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 24);
  const double time_limit = flags.GetDouble("time-limit", 1.0);
  const uint64_t seed = flags.GetUint64("seed", 100);
  flags.Finish();

  laar::bench::PrintHeader("Fig. 4", "FT-Search outcome counts vs IC constraint",
                           "NUL grows with IC; BST+SOL shrink; TMO small");
  std::printf("%-6s %6s %6s %6s %6s   (n=%d per row, %gs limit)\n", "IC", "BST", "SOL",
              "NUL", "TMO", num_apps, time_limit);

  const auto corpus = laar::bench::GenerateSearchCorpus(num_apps, seed);
  for (double ic : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    int counts[4] = {0, 0, 0, 0};
    for (const auto& instance : corpus) {
      auto result = laar::bench::SearchInstanceAt(instance, ic, time_limit);
      if (!result.ok()) continue;
      ++counts[static_cast<int>(result->outcome)];
    }
    std::printf("%-6.2f %6d %6d %6d %6d\n", ic,
                counts[static_cast<int>(laar::ftsearch::SearchOutcome::kOptimal)],
                counts[static_cast<int>(laar::ftsearch::SearchOutcome::kFeasible)],
                counts[static_cast<int>(laar::ftsearch::SearchOutcome::kInfeasible)],
                counts[static_cast<int>(laar::ftsearch::SearchOutcome::kTimeout)]);
  }
  return 0;
}
