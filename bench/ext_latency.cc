// Extension: end-to-end latency by variant.
//
// The paper's SLA model names maximum-latency clauses (§3) and argues that
// overload "leads to increased processing latency due to data queuing";
// this bench quantifies it: per variant, the p50/p95/p99 sink latency over
// the experiment trace. Static replication queues heavily during High
// (bounded only by the 2-second queue cap), while the dynamic variants
// stay near the pipeline's service time.

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"
#include "laar/exec/parallel.h"
#include "laar/runtime/experiment.h"

namespace {

struct LatencyRow {
  std::string name;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 6);
  const uint64_t seed_base = flags.GetUint64("seed", 60000);
  const int jobs = laar::bench::JobsFromFlags(flags);
  const auto options = laar::bench::HarnessFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader("Extension", "sink latency percentiles by variant",
                           "SR latency explodes toward the queue bound during High; "
                           "dynamic variants stay near service time");

  std::map<std::string, laar::SampleStats> p50;
  std::map<std::string, laar::SampleStats> p99;
  std::map<std::string, laar::SampleStats> max_latency;

  const auto probe = [&options](uint64_t seed) -> std::optional<std::vector<LatencyRow>> {
    auto prepared = laar::runtime::PrepareExperiment(options, seed);
    if (!prepared.ok()) return std::nullopt;
    std::vector<LatencyRow> rows;
    for (const auto& variant : prepared->variants) {
      laar::runtime::ScenarioOptions scenario;  // best case
      auto metrics = laar::runtime::RunScenario(prepared->app, variant.strategy,
                                                prepared->trace, options.runtime, scenario);
      if (!metrics.ok() || metrics->sink_latency.count() == 0) continue;
      rows.push_back({variant.name, metrics->sink_latency.Percentile(50),
                      metrics->sink_latency.Percentile(99), metrics->sink_latency.max()});
    }
    return rows;
  };

  const auto kept = laar::CollectUsableSeeds<std::vector<LatencyRow>>(
      num_apps, seed_base, jobs, num_apps * 1000, probe,
      [num_apps](size_t index, const laar::SeedProbe<std::vector<LatencyRow>>& p) {
        std::fprintf(stderr, "  [corpus] app %zu/%d (seed %llu)\n", index + 1, num_apps,
                     static_cast<unsigned long long>(p.seed));
      });
  for (const auto& probe_result : kept) {
    for (const LatencyRow& row : probe_result.value) {
      p50[row.name].Add(row.p50);
      p99[row.name].Add(row.p99);
      max_latency[row.name].Add(row.max);
    }
  }

  std::printf("\nmean over %zu applications (seconds):\n", kept.size());
  std::printf("%-8s %10s %10s %10s\n", "variant", "p50", "p99", "max");
  for (const char* name : laar::bench::VariantOrder()) {
    std::printf("%-8s %10.3f %10.3f %10.3f\n", name, p50[name].mean(), p99[name].mean(),
                max_latency[name].mean());
  }
  return 0;
}
