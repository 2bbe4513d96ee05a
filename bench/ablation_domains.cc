// Ablation: domain-aware vs. domain-oblivious placement under correlated
// rack outages (Fig. 11 methodology, correlated failure model).
//
// For each corpus application the same cluster (12 hosts in racks of 3) is
// struck by seeded whole-rack outages during High periods. The only thing
// that differs between the two runs of a seed is the placement: the
// oblivious one is plain load-balanced greedy, the aware one additionally
// spreads each PE's replica pair across distinct racks. A PE whose two
// replicas share a rack loses both to one outage, so the aware placement
// should lose strictly fewer tuples; the correlated φ bound (1 - f^m)
// certifies the same gap analytically.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/common/stats.h"
#include "laar/exec/parallel.h"
#include "laar/metrics/failure_model.h"
#include "laar/metrics/ic.h"
#include "laar/placement/placement_algorithms.h"
#include "laar/runtime/experiment.h"

namespace {

struct DomainProbe {
  // Tuples the outage cost each placement: failure-free processed minus
  // outage processed, each against its own reference so load effects of
  // the placement cancel and only outage damage remains.
  uint64_t lost_oblivious = 0;
  uint64_t lost_aware = 0;
  double ic_oblivious = 0.0;  // correlated-φ IC bound of the placement
  double ic_aware = 0.0;
};

uint64_t LostTuples(uint64_t reference, uint64_t outage) {
  return reference > outage ? reference - outage : 0;
}

std::optional<DomainProbe> ProbeSeed(uint64_t seed, double trace_seconds,
                                     int bursts) {
  laar::appgen::GeneratorOptions generator;
  generator.num_pes = 12;
  generator.num_hosts = 12;
  generator.hosts_per_rack = 3;
  auto app = laar::appgen::GenerateApplication(generator, seed);
  if (!app.ok()) return std::nullopt;

  auto rates = laar::model::ExpectedRates::Compute(app->descriptor.graph,
                                                   app->descriptor.input_space);
  if (!rates.ok()) return std::nullopt;
  auto aware_placement = laar::placement::PlaceDomainSpread(
      app->descriptor.graph, app->descriptor.input_space, *rates, app->cluster,
      generator.replication_factor, laar::model::DomainLevel::kRack);
  if (!aware_placement.ok()) return std::nullopt;

  // Static active replication (SR): every replica active everywhere, so the
  // comparison isolates placement, not activation policy.
  const laar::strategy::ActivationStrategy sr(
      app->descriptor.graph.num_components(), generator.replication_factor,
      app->descriptor.input_space.num_configs());

  auto trace = laar::runtime::MakeExperimentTrace(app->descriptor.input_space,
                                                  trace_seconds, 1.0 / 3.0, bursts);
  if (!trace.ok()) return std::nullopt;

  laar::runtime::ScenarioOptions outage;
  outage.scenario = laar::runtime::FailureScenario::kDomainOutage;
  outage.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  outage.domain_level = laar::model::DomainLevel::kRack;
  outage.outage_bursts = bursts;

  const laar::dsps::RuntimeOptions runtime;
  laar::runtime::ScenarioOptions best_case;
  DomainProbe probe;
  {
    auto reference = laar::runtime::RunScenario(*app, sr, *trace, runtime, best_case);
    auto metrics = laar::runtime::RunScenario(*app, sr, *trace, runtime, outage);
    if (!reference.ok() || !metrics.ok()) return std::nullopt;
    probe.lost_oblivious =
        LostTuples(reference->TotalProcessed(), metrics->TotalProcessed());
  }
  {
    laar::appgen::GeneratedApplication aware_app = *app;
    aware_app.placement = *aware_placement;
    auto reference =
        laar::runtime::RunScenario(aware_app, sr, *trace, runtime, best_case);
    auto metrics =
        laar::runtime::RunScenario(aware_app, sr, *trace, runtime, outage);
    if (!reference.ok() || !metrics.ok()) return std::nullopt;
    probe.lost_aware =
        LostTuples(reference->TotalProcessed(), metrics->TotalProcessed());
  }

  laar::metrics::IcCalculator calc(app->descriptor.graph,
                                   app->descriptor.input_space, *rates);
  const laar::metrics::CorrelatedFailureModel oblivious_model(
      app->placement, app->cluster.topology(), laar::model::DomainLevel::kRack, 0.5);
  const laar::metrics::CorrelatedFailureModel aware_model(
      *aware_placement, app->cluster.topology(), laar::model::DomainLevel::kRack, 0.5);
  probe.ic_oblivious = calc.InternalCompleteness(sr, oblivious_model);
  probe.ic_aware = calc.InternalCompleteness(sr, aware_model);
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 10);
  const uint64_t seed_base = flags.GetUint64("seed", 11000);
  const double trace_seconds = flags.GetDouble("trace-seconds", 120.0);
  const int bursts = flags.GetInt("bursts", 2);
  const int jobs = laar::bench::JobsFromFlags(flags);
  const bool require_win = flags.Has("require-win");
  flags.Finish();

  laar::bench::PrintHeader(
      "Ablation", "domain-aware vs. domain-oblivious placement under rack outages",
      "pairs split across racks survive a one-rack outage, co-racked pairs do "
      "not: the aware placement should drop fewer tuples (and never more), and "
      "its correlated-φ IC bound should dominate");

  const auto kept = laar::CollectUsableSeeds<DomainProbe>(
      num_apps, seed_base, jobs, num_apps * 1000,
      [trace_seconds, bursts](uint64_t seed) -> std::optional<DomainProbe> {
        return ProbeSeed(seed, trace_seconds, bursts);
      });

  laar::SampleStats lost_oblivious, lost_aware, ic_oblivious, ic_aware;
  int aware_strictly_better = 0;
  int aware_worse = 0;
  std::printf("%-10s %14s %14s %12s %12s\n", "seed", "lost(obliv)", "lost(aware)",
              "ic(obliv)", "ic(aware)");
  for (const auto& probe : kept) {
    const DomainProbe& p = probe.value;
    std::printf("%-10llu %14llu %14llu %12.4f %12.4f\n",
                static_cast<unsigned long long>(probe.seed),
                static_cast<unsigned long long>(p.lost_oblivious),
                static_cast<unsigned long long>(p.lost_aware), p.ic_oblivious,
                p.ic_aware);
    lost_oblivious.Add(static_cast<double>(p.lost_oblivious));
    lost_aware.Add(static_cast<double>(p.lost_aware));
    ic_oblivious.Add(p.ic_oblivious);
    ic_aware.Add(p.ic_aware);
    if (p.lost_aware < p.lost_oblivious) ++aware_strictly_better;
    if (p.lost_aware > p.lost_oblivious) ++aware_worse;
  }
  std::printf("\n");
  laar::bench::PrintBoxRow("obliv", lost_oblivious);
  laar::bench::PrintBoxRow("aware", lost_aware);
  std::printf("\naware loses strictly fewer tuples on %d/%zu seeds, more on %d; "
              "mean correlated-φ IC %.4f (obliv) vs %.4f (aware)\n",
              aware_strictly_better, kept.size(), aware_worse, ic_oblivious.mean(),
              ic_aware.mean());
  if (require_win && aware_strictly_better == 0) {
    std::fprintf(stderr,
                 "FAIL: domain-aware placement never beat oblivious placement\n");
    return 1;
  }
  return 0;
}
