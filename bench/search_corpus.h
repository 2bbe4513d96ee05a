#ifndef LAAR_BENCH_SEARCH_CORPUS_H_
#define LAAR_BENCH_SEARCH_CORPUS_H_

#include <cstdint>
#include <vector>

#include "laar/appgen/app_generator.h"
#include "laar/model/rates.h"

namespace laar::bench {

/// One instance of the §4.5 study corpus.
struct SearchInstance {
  uint64_t seed = 0;
  int num_hosts = 0;
  int num_pes = 0;
  appgen::GeneratedApplication app;
  model::ExpectedRates rates;
};

/// Generates the §4.5-style corpus: applications over 2..max_hosts hosts
/// with 2..max_pes_per_host PEs per host (the paper sweeps 1..12 hosts and
/// 2..12 PEs per host). The same corpus is reused across IC levels, as in
/// the paper.
inline std::vector<SearchInstance> GenerateSearchCorpus(int num_apps, uint64_t seed_base,
                                                        int max_hosts = 8,
                                                        int max_pes_per_host = 6) {
  std::vector<SearchInstance> instances;
  uint64_t seed = seed_base;
  while (static_cast<int>(instances.size()) < num_apps) {
    ++seed;
    appgen::GeneratorOptions generator;
    generator.num_hosts = 2 + static_cast<int>(seed % static_cast<uint64_t>(max_hosts - 1));
    const int pes_per_host =
        2 + static_cast<int>((seed / 7) % static_cast<uint64_t>(max_pes_per_host - 1));
    // The paper counts PEs per host before replication (k = 2 doubles the
    // replica count).
    generator.num_pes = generator.num_hosts * pes_per_host / 2;
    if (generator.num_pes < 2) generator.num_pes = 2;
    Result<appgen::GeneratedApplication> app =
        appgen::GenerateApplication(generator, seed);
    if (!app.ok()) continue;
    auto rates = model::ExpectedRates::Compute(app->descriptor.graph,
                                               app->descriptor.input_space);
    if (!rates.ok()) continue;
    SearchInstance instance;
    instance.seed = seed;
    instance.num_hosts = generator.num_hosts;
    instance.num_pes = generator.num_pes;
    instance.app = std::move(*app);
    instance.rates = std::move(*rates);
    instances.push_back(std::move(instance));
  }
  return instances;
}

}  // namespace laar::bench

#endif  // LAAR_BENCH_SEARCH_CORPUS_H_
