// Reproduces Fig. 9 (best-case scenario, §5.3):
//  top — distribution of total CPU time per variant, normalized to NR.
//        Paper: SR is the most expensive (1.61-1.90x NR), GRD second, the
//        LAAR variants cheapest with cost proportional to the IC target.
//  bottom — distribution of tuples dropped per variant, normalized to NR.
//        Paper: SR drops up to ~33.6x more than NR with huge variance;
//        dynamic variants stay near NR.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 12);
  const uint64_t seed = flags.GetUint64("seed", 10000);
  auto options = laar::bench::HarnessFromFlags(flags);
  laar::bench::CorpusObservability observability(flags, &options);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader("Fig. 9", "best-case CPU time and tuple drops vs NR",
                           "cost: SR > GRD > L.7 > L.6 > L.5 >= NR; drops: SR >> "
                           "dynamic variants");

  const auto records = laar::bench::RunExperimentCorpus(
      options, num_apps, seed, /*verbose=*/true, jobs);

  std::map<std::string, laar::SampleStats> cpu_ratio;
  std::map<std::string, laar::SampleStats> drop_ratio;
  for (const auto& record : records) {
    const auto* nr = record.Find("NR");
    if (nr == nullptr || nr->cpu_cycles <= 0.0) continue;
    const double nr_drops = static_cast<double>(nr->dropped) + 1.0;  // +1: NR can be 0
    for (const auto& variant : record.variants) {
      cpu_ratio[variant.variant].Add(variant.cpu_cycles / nr->cpu_cycles);
      drop_ratio[variant.variant].Add(
          (static_cast<double>(variant.dropped) + 1.0) / nr_drops);
    }
  }

  std::printf("\n(top) total CPU time / NR:\n");
  for (const char* name : laar::bench::VariantOrder()) {
    laar::bench::PrintBoxRow(name, cpu_ratio[name]);
  }
  std::printf("\n(bottom) tuples dropped / NR (counts offset by +1):\n");
  for (const char* name : laar::bench::VariantOrder()) {
    laar::bench::PrintBoxRow(name, drop_ratio[name]);
  }
  return observability.Finish(records);
}
