// Extension: where passive (checkpointing) fault tolerance sits in LAAR's
// trade-off space.
//
// The paper's §2 surveys the replication/checkpointing spectrum ([11],
// [18], the hybrid [34]); IBM Streams natively offers checkpointing only.
// This bench places a checkpointing deployment — one replica per PE paying
// a steady-state CPU overhead, with a recovery gap on failure — next to
// NR, SR, and LAAR on the two axes the paper cares about: best-case CPU
// cost and completeness under a host crash with recovery.
//
// Expectation: CKPT costs barely more than NR in the best case, but its
// crash completeness is NR-like (everything on the crashed host is lost
// until recovery), while SR/LAAR ride through failures — the classic
// best-case-cost vs recovery-cost trade-off.

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/experiment_corpus.h"
#include "laar/common/stats.h"
#include "laar/exec/parallel.h"
#include "laar/model/transform.h"
#include "laar/runtime/experiment.h"
#include "laar/runtime/variants.h"

namespace {

struct VariantRow {
  std::string name;
  double cost_vs_nr = 0.0;
  double crash_ic = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 6);
  const uint64_t seed_base = flags.GetUint64("seed", 63000);
  const int jobs = laar::bench::JobsFromFlags(flags);
  /// Steady-state checkpointing overhead as a CPU fraction ([18] reports
  /// single-digit percentages for language-level checkpointing).
  const double overhead = flags.GetDouble("overhead", 0.05);
  const auto options = laar::bench::HarnessFromFlags(flags);
  flags.Finish();

  laar::bench::PrintHeader("Extension", "checkpointing vs active replication vs LAAR",
                           "CKPT ~ NR cost but NR-like crash completeness; SR/LAAR "
                           "ride through failures at higher cost");

  std::map<std::string, laar::SampleStats> cost_vs_nr;
  std::map<std::string, laar::SampleStats> crash_ic;

  const auto probe = [&options,
                      overhead](uint64_t seed) -> std::optional<std::vector<VariantRow>> {
    auto prepared = laar::runtime::PrepareExperiment(options, seed);
    if (!prepared.ok()) return std::nullopt;
    const auto& app = prepared->app;
    const auto& trace = prepared->trace;

    // The CKPT deployment: the NR activation pattern on a descriptor whose
    // CPU costs carry the checkpointing overhead.
    auto ckpt_descriptor = laar::model::ScaleCpuCosts(app.descriptor, 1.0 + overhead);
    ckpt_descriptor.status().CheckOK();
    laar::appgen::GeneratedApplication ckpt_app = app;
    ckpt_app.descriptor = std::move(*ckpt_descriptor);

    const laar::runtime::NamedVariant* nr = nullptr;
    for (const auto& v : prepared->variants) {
      if (v.name == "NR") nr = &v;
    }

    std::vector<VariantRow> rows;
    // Reference: failure-free NR.
    laar::runtime::ScenarioOptions none;
    auto reference =
        laar::runtime::RunScenario(app, nr->strategy, trace, options.runtime, none);
    if (!reference.ok() || reference->TotalProcessed() == 0) return rows;
    const double nr_cycles = reference->TotalCpuCycles();
    const double denominator = static_cast<double>(reference->TotalProcessed());

    laar::runtime::ScenarioOptions crash;
    crash.scenario = laar::runtime::FailureScenario::kHostCrash;
    crash.seed = seed;

    for (const auto& variant : prepared->variants) {
      auto best =
          laar::runtime::RunScenario(app, variant.strategy, trace, options.runtime, none);
      auto crashed =
          laar::runtime::RunScenario(app, variant.strategy, trace, options.runtime, crash);
      if (!best.ok() || !crashed.ok()) continue;
      rows.push_back({variant.name, best->TotalCpuCycles() / nr_cycles,
                      static_cast<double>(crashed->TotalProcessed()) / denominator});
    }
    // CKPT runs against the overhead-inflated descriptor.
    auto ckpt_best =
        laar::runtime::RunScenario(ckpt_app, nr->strategy, trace, options.runtime, none);
    auto ckpt_crash =
        laar::runtime::RunScenario(ckpt_app, nr->strategy, trace, options.runtime, crash);
    if (ckpt_best.ok() && ckpt_crash.ok()) {
      rows.push_back({"CKPT", ckpt_best->TotalCpuCycles() / nr_cycles,
                      static_cast<double>(ckpt_crash->TotalProcessed()) / denominator});
    }
    return rows;
  };

  const auto kept = laar::CollectUsableSeeds<std::vector<VariantRow>>(
      num_apps, seed_base, jobs, num_apps * 1000, probe,
      [num_apps](size_t index, const laar::SeedProbe<std::vector<VariantRow>>& p) {
        std::fprintf(stderr, "  [corpus] app %zu/%d (seed %llu)\n", index + 1, num_apps,
                     static_cast<unsigned long long>(p.seed));
      });
  for (const auto& probe_result : kept) {
    for (const VariantRow& row : probe_result.value) {
      cost_vs_nr[row.name].Add(row.cost_vs_nr);
      crash_ic[row.name].Add(row.crash_ic);
    }
  }

  std::printf("\nmeans over %zu applications (checkpoint overhead %.0f%%):\n",
              kept.size(), overhead * 100.0);
  std::printf("%-8s %12s %16s\n", "variant", "cost/NR", "crash IC");
  std::vector<const char*> order = {"NR", "CKPT", "SR", "GRD", "L.5", "L.6", "L.7"};
  for (const char* name : order) {
    if (cost_vs_nr.count(name) == 0) continue;
    std::printf("%-8s %12.3f %16.3f\n", name, cost_vs_nr[name].mean(),
                crash_ic[name].mean());
  }
  return 0;
}
