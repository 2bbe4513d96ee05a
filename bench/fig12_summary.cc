// Reproduces Fig. 12: summary bar chart — mean tuples dropped, mean
// worst-case IC, and mean cost of every variant, normalized to static
// active replication (SR).
//
// Paper shape: LAAR variants cost visibly less than SR while their IC
// scales with the requested level; execution cost tracks the IC guarantee.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 12);
  const uint64_t seed = flags.GetUint64("seed", 40000);
  auto options = laar::bench::HarnessFromFlags(flags);
  laar::bench::CorpusObservability observability(flags, &options);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader("Fig. 12", "summary: drops / worst-case IC / cost, vs SR",
                           "cost ordering NR < L.5 < L.6 < L.7 < GRD < SR; IC "
                           "ordering NR < L.5 < L.6 < L.7 < SR");

  const auto records = laar::bench::RunExperimentCorpus(
      options, num_apps, seed, /*verbose=*/true, jobs);

  std::map<std::string, laar::SampleStats> drops;
  std::map<std::string, laar::SampleStats> ic;
  std::map<std::string, laar::SampleStats> cost;
  for (const auto& record : records) {
    const auto* sr = record.Find("SR");
    const auto* nr = record.Find("NR");
    if (sr == nullptr || nr == nullptr || sr->cpu_cycles <= 0.0 ||
        nr->processed_best == 0) {
      continue;
    }
    const double sr_drops = static_cast<double>(sr->dropped) + 1.0;
    for (const auto& variant : record.variants) {
      drops[variant.variant].Add((static_cast<double>(variant.dropped) + 1.0) / sr_drops);
      cost[variant.variant].Add(variant.cpu_cycles / sr->cpu_cycles);
      // Worst-case IC measured against the failure-free NR reference.
      ic[variant.variant].Add(static_cast<double>(variant.processed_worst) /
                              static_cast<double>(nr->processed_best));
    }
  }

  std::printf("\n%-8s %16s %16s %16s\n", "variant", "drops/SR", "worst-case IC",
              "cost/SR");
  for (const char* name : laar::bench::VariantOrder()) {
    std::printf("%-8s %16.3f %16.3f %16.3f\n", name, drops[name].mean(), ic[name].mean(),
                cost[name].mean());
  }
  return observability.Finish(records);
}
