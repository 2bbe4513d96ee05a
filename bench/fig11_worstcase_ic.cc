// Reproduces Fig. 11: total samples processed under failures, normalized
// to the failure-free NR run.
//
//  top — pessimistic worst case (one replica of every PE permanently dead,
//        the survivor adversarially chosen): NR drops to ~0; each L.x sits
//        at or above its promised IC (paper: violations never exceed
//        4.7%); GRD is erratic (0.35-0.95); SR stays near its best case.
//  bottom — single random host crash during a High period, recovered after
//        16 s: every replicated variant scores far above its guarantee and
//        L.5 behaves like NR.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 12);
  const uint64_t seed = flags.GetUint64("seed", 30000);
  auto options = laar::bench::HarnessFromFlags(flags);
  options.run_host_crash = true;  // the bottom panel needs it
  laar::bench::CorpusObservability observability(flags, &options);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader(
      "Fig. 11", "samples processed under failures, / failure-free NR",
      "worst case: NR ~ 0, L.x >= promised IC, GRD erratic; host crash: all high");

  const auto records = laar::bench::RunExperimentCorpus(
      options, num_apps, seed, /*verbose=*/true, jobs);

  std::map<std::string, laar::SampleStats> worst_ratio;
  std::map<std::string, laar::SampleStats> crash_ratio;
  laar::SampleStats promise_margin;  // measured - promised, L.x variants
  for (const auto& record : records) {
    const auto* nr = record.Find("NR");
    if (nr == nullptr || nr->processed_best == 0) continue;
    const double reference = static_cast<double>(nr->processed_best);
    for (const auto& variant : record.variants) {
      const double measured = static_cast<double>(variant.processed_worst) / reference;
      worst_ratio[variant.variant].Add(measured);
      crash_ratio[variant.variant].Add(static_cast<double>(variant.processed_crash) /
                                       reference);
      if (variant.promised_ic > 0.0) {
        promise_margin.Add(measured - variant.promised_ic);
      }
    }
  }

  std::printf("\n(top) pessimistic worst case, processed / failure-free NR:\n");
  for (const char* name : laar::bench::VariantOrder()) {
    laar::bench::PrintBoxRow(name, worst_ratio[name]);
  }
  std::printf("\nL.x measured-minus-promised IC margin: mean=%.4f min=%.4f "
              "(negative = violation; paper sees at most -0.047)\n",
              promise_margin.mean(), promise_margin.min());

  std::printf("\n(bottom) single host crash + 16 s recovery, processed / NR:\n");
  for (const char* name : laar::bench::VariantOrder()) {
    laar::bench::PrintBoxRow(name, crash_ratio[name]);
  }
  return observability.Finish(records);
}
