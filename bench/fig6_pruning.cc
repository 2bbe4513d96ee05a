// Reproduces Fig. 6: effectiveness of the four FT-Search pruning
// strategies — relative number of prunes (left panel) and mean height of
// the pruned branches (right panel).
//
// Paper shape: the IC-bound strategy (COMPL) fires most often, followed by
// forward domain propagation (DOM); CPU-based pruning fires higher in the
// tree (larger pruned subtrees); COST is the least used.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/search_corpus.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 20);
  const double time_limit = flags.GetDouble("time-limit", 2.0);
  const uint64_t seed = flags.GetUint64("seed", 900);
  flags.Finish();

  laar::bench::PrintHeader("Fig. 6", "pruning strategy usage and pruned-branch height",
                           "COMPL most applied, then DOM; CPU prunes the tallest "
                           "branches; COST least used");

  laar::ftsearch::FtSearchStats total;
  const auto corpus = laar::bench::GenerateSearchCorpus(num_apps, seed);
  for (double ic : {0.5, 0.6, 0.7}) {
    for (const auto& instance : corpus) {
      auto run = laar::bench::SearchInstanceAt(instance, ic, time_limit);
      if (run.ok()) total.MergeFrom(run->stats);
    }
  }

  const double all = static_cast<double>(total.cpu.count + total.compl_.count +
                                         total.cost.count + total.dom.count);
  std::printf("nodes explored: %llu, total prunes: %.0f\n",
              static_cast<unsigned long long>(total.nodes_explored), all);
  std::printf("%-8s %12s %10s %12s\n", "strategy", "prunes", "share", "mean height");
  const struct {
    const char* name;
    const laar::ftsearch::PruningStats* stats;
  } rows[] = {
      {"CPU", &total.cpu},
      {"COMPL", &total.compl_},
      {"COST", &total.cost},
      {"DOM", &total.dom},
  };
  for (const auto& row : rows) {
    std::printf("%-8s %12llu %9.1f%% %12.2f\n", row.name,
                static_cast<unsigned long long>(row.stats->count),
                all > 0 ? 100.0 * static_cast<double>(row.stats->count) / all : 0.0,
                row.stats->MeanHeight());
  }
  return 0;
}
