// Extension: load shedding vs LAAR (§2).
//
// The paper positions LAAR against the classic overload defences: queueing
// (latency), load shedding (completeness), and over-provisioning (cost).
// This bench puts numbers on that triangle for one corpus: static
// replication with deep queues (high latency, drops at the cap), static
// replication with a RED-style shedder (low latency, more loss), and LAAR
// (low latency AND low loss, by spending the replica budget instead).

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
#include "laar/runtime/variants.h"

namespace {

struct SetupRow {
  const char* label = nullptr;
  std::optional<double> loss_fraction;  // dropped / source-side offered load
  std::optional<double> p99_latency;
  double peak_output = 0.0;             // vs NR
};

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const int num_apps = flags.GetInt("apps", 6);
  const uint64_t seed_base = flags.GetUint64("seed", 65000);
  const int jobs = laar::bench::JobsFromFlags(flags);
  const double shed_threshold = flags.GetDouble("shed-threshold", 0.2);

  laar::bench::PrintHeader(
      "Extension", "overload defences: queueing vs shedding vs LAAR (§2)",
      "SR+queues: high latency; SR+shedding: low latency, most loss; LAAR: low "
      "latency and near-zero loss");

  auto options = laar::bench::HarnessFromFlags(flags);

  struct Row {
    laar::SampleStats loss_fraction;
    laar::SampleStats p99_latency;
    laar::SampleStats peak_output;
  };
  std::map<std::string, Row> rows;

  const auto probe = [&options, shed_threshold](
                         uint64_t seed) -> std::optional<std::vector<SetupRow>> {
    auto app = laar::appgen::GenerateApplication(options.generator, seed);
    if (!app.ok()) return std::nullopt;
    auto variants = laar::runtime::BuildVariants(*app, options.variants);
    if (!variants.ok()) return std::nullopt;
    auto trace = laar::runtime::MakeExperimentTrace(
        app->descriptor.input_space, options.trace_seconds, options.high_fraction,
        options.trace_cycles);
    if (!trace.ok()) return std::nullopt;

    const laar::runtime::NamedVariant* nr = nullptr;
    const laar::runtime::NamedVariant* sr = nullptr;
    const laar::runtime::NamedVariant* l6 = nullptr;
    for (const auto& v : *variants) {
      if (v.name == "NR") nr = &v;
      if (v.name == "SR") sr = &v;
      if (v.name == "L.6") l6 = &v;
    }
    std::vector<SetupRow> out;
    laar::runtime::ScenarioOptions none;
    auto reference =
        laar::runtime::RunScenario(*app, nr->strategy, *trace, options.runtime, none);
    if (!reference.ok() || reference->sink_tuples == 0) return out;
    const double nr_peak = static_cast<double>(reference->sink_tuples);

    const struct {
      const char* label;
      const laar::strategy::ActivationStrategy* strategy;
      bool shedding;
    } setups[] = {
        {"SR+queues", &sr->strategy, false},
        {"SR+shed", &sr->strategy, true},
        {"LAAR L.6", &l6->strategy, false},
    };
    for (const auto& setup : setups) {
      laar::dsps::RuntimeOptions runtime = options.runtime;
      runtime.enable_load_shedding = setup.shedding;
      runtime.shed_threshold = shed_threshold;
      auto metrics =
          laar::runtime::RunScenario(*app, *setup.strategy, *trace, runtime, none);
      if (!metrics.ok()) continue;
      SetupRow row;
      row.label = setup.label;
      const double offered =
          static_cast<double>(metrics->dropped_tuples + metrics->TotalProcessed());
      if (offered > 0) {
        row.loss_fraction = static_cast<double>(metrics->dropped_tuples) / offered;
      }
      if (metrics->sink_latency.count() > 0) {
        row.p99_latency = metrics->sink_latency.Percentile(99);
      }
      row.peak_output = static_cast<double>(metrics->sink_tuples) / nr_peak;
      out.push_back(row);
    }
    return out;
  };

  const auto kept = laar::CollectUsableSeeds<std::vector<SetupRow>>(
      num_apps, seed_base, jobs, num_apps * 1000, probe,
      [num_apps](size_t index, const laar::SeedProbe<std::vector<SetupRow>>& p) {
        std::fprintf(stderr, "  [corpus] app %zu/%d (seed %llu)\n", index + 1, num_apps,
                     static_cast<unsigned long long>(p.seed));
      });
  for (const auto& probe_result : kept) {
    for (const SetupRow& setup : probe_result.value) {
      Row& row = rows[setup.label];
      if (setup.loss_fraction.has_value()) row.loss_fraction.Add(*setup.loss_fraction);
      if (setup.p99_latency.has_value()) row.p99_latency.Add(*setup.p99_latency);
      row.peak_output.Add(setup.peak_output);
    }
  }

  std::printf("\nmeans over %d applications:\n", num_apps);
  std::printf("%-10s %14s %14s %14s\n", "setup", "loss fraction", "p99 latency",
              "output vs NR");
  for (const char* label : {"SR+queues", "SR+shed", "LAAR L.6"}) {
    const auto& row = rows[label];
    std::printf("%-10s %14.4f %13.3fs %14.3f\n", label, row.loss_fraction.mean(),
                row.p99_latency.mean(), row.peak_output.mean());
  }
  return 0;
}
