// Ablation: tightness of the pessimistic failure model (§6 future work i).
//
// For strategies produced by FT-Search, compares the IC bound of the
// pessimistic model (Eq. 14) against the independent per-replica model at
// several failure probabilities, and against the measured worst-case IC.
// The pessimistic bound is the floor; the alternatives show how much
// head-room a less adversarial model would certify.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"
#include "laar/exec/parallel.h"
#include "laar/metrics/failure_model.h"
#include "laar/metrics/ic.h"
#include "laar/runtime/variants.h"

namespace {

struct ModelBounds {
  double pessimistic = 0.0;
  double independent_10 = 0.0;
  double independent_50 = 0.0;
  double independent_90 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 10);
  const uint64_t seed_base = flags.GetUint64("seed", 9000);
  const double time_limit = flags.GetDouble("time-limit", 5.0);
  const int jobs = laar::bench::JobsFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader(
      "Ablation", "failure-model bounds for L.x strategies (§6.i)",
      "the models rank differently by design: Eq. 14 is binary (full credit iff "
      "fully replicated, nothing otherwise) while the independent model discounts "
      "replicated PEs by 1-f^2 but credits single-active ones 1-f; for small f the "
      "independent bound is far tighter (larger), for f -> 1 it collapses below "
      "Eq. 14");

  laar::SampleStats pessimistic_ic;
  laar::SampleStats independent_10;
  laar::SampleStats independent_50;
  laar::SampleStats independent_90;

  const auto kept = laar::CollectUsableSeeds<ModelBounds>(
      num_apps, seed_base, jobs, num_apps * 1000,
      [time_limit](uint64_t seed) -> std::optional<ModelBounds> {
        laar::appgen::GeneratorOptions generator;
        generator.num_pes = 12;
        generator.num_hosts = 6;
        auto app = laar::appgen::GenerateApplication(generator, seed);
        if (!app.ok()) return std::nullopt;
        laar::runtime::VariantBuildOptions build;
        build.laar_ic_requirements = {0.6};
        build.ftsearch_time_limit_seconds = time_limit;
        auto variants = laar::runtime::BuildVariants(*app, build);
        if (!variants.ok()) return std::nullopt;

        auto rates = laar::model::ExpectedRates::Compute(app->descriptor.graph,
                                                         app->descriptor.input_space);
        rates.status().CheckOK();
        laar::metrics::IcCalculator calc(app->descriptor.graph,
                                         app->descriptor.input_space, *rates);
        const auto& strategy = variants->back().strategy;  // the L.6 variant
        ModelBounds bounds;
        laar::metrics::PessimisticFailureModel pessimistic;
        bounds.pessimistic = calc.InternalCompleteness(strategy, pessimistic);
        bounds.independent_10 = calc.InternalCompleteness(
            strategy, laar::metrics::IndependentFailureModel(0.1));
        bounds.independent_50 = calc.InternalCompleteness(
            strategy, laar::metrics::IndependentFailureModel(0.5));
        bounds.independent_90 = calc.InternalCompleteness(
            strategy, laar::metrics::IndependentFailureModel(0.9));
        return bounds;
      });
  for (const auto& probe : kept) {
    pessimistic_ic.Add(probe.value.pessimistic);
    independent_10.Add(probe.value.independent_10);
    independent_50.Add(probe.value.independent_50);
    independent_90.Add(probe.value.independent_90);
  }

  std::printf("%-24s %10s %10s %10s\n", "model", "mean IC", "min IC", "max IC");
  std::printf("%-24s %10.4f %10.4f %10.4f\n", "pessimistic (Eq. 14)", pessimistic_ic.mean(),
              pessimistic_ic.min(), pessimistic_ic.max());
  std::printf("%-24s %10.4f %10.4f %10.4f\n", "independent f=0.9", independent_90.mean(),
              independent_90.min(), independent_90.max());
  std::printf("%-24s %10.4f %10.4f %10.4f\n", "independent f=0.5", independent_50.mean(),
              independent_50.min(), independent_50.max());
  std::printf("%-24s %10.4f %10.4f %10.4f\n", "independent f=0.1", independent_10.mean(),
              independent_10.min(), independent_10.max());
  return 0;
}
