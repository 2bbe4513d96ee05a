// Reproduces Fig. 10: application output rate during the load peak,
// normalized to the over-provisioned non-replicated deployment (NR).
//
// Paper shape: SR averages ~0.67 of NR (as low as 0.37); the LAAR variants
// stay at >= ~0.91; GRD lands in between but with inconsistent spread
// (0.62-0.98).

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 12);
  const uint64_t seed = flags.GetUint64("seed", 20000);
  auto options = laar::bench::HarnessFromFlags(flags);
  laar::bench::CorpusObservability observability(flags, &options);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader("Fig. 10", "output rate during the load peak, / NR",
                           "SR lowest and widest; LAAR variants close to 1; GRD "
                           "inconsistent in between");

  const auto records = laar::bench::RunExperimentCorpus(
      options, num_apps, seed, /*verbose=*/true, jobs);

  std::map<std::string, laar::SampleStats> ratio;
  for (const auto& record : records) {
    const auto* nr = record.Find("NR");
    if (nr == nullptr || nr->peak_output_rate <= 0.0) continue;
    for (const auto& variant : record.variants) {
      ratio[variant.variant].Add(variant.peak_output_rate / nr->peak_output_rate);
    }
  }
  std::printf("\npeak output rate / NR:\n");
  for (const char* name : laar::bench::VariantOrder()) {
    laar::bench::PrintBoxRow(name, ratio[name]);
  }
  return observability.Finish(records);
}
