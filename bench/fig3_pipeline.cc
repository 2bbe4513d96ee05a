// Reproduces Fig. 3: the two-PE pipeline of §4.1 on two single-core hosts.
//
// (a) static active replication: when the input steps from Low (4 t/s) to
//     High (8 t/s) around t = 50 s, both host CPUs saturate and the output
//     rate falls below the input rate;
// (b) LAAR deactivates one replica of each PE during High and the output
//     follows the input.
//
// Prints per-second series: per-replica CPU utilization, input and output
// rate, for both variants.

#include <cstdio>

#include "bench/bench_util.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/model/descriptor.h"
#include "laar/placement/placement_algorithms.h"
#include "laar/strategy/baselines.h"

namespace {

constexpr double kHz = 1e9;

laar::model::ApplicationDescriptor MakePipeline() {
  laar::model::ApplicationDescriptor app;
  app.name = "fig3";
  const auto source = app.graph.AddSource("src");
  const auto pe1 = app.graph.AddPe("PE1");
  const auto pe2 = app.graph.AddPe("PE2");
  const auto sink = app.graph.AddSink("sink");
  app.graph.AddEdge(source, pe1, 1.0, 0.1 * kHz).CheckOK();
  app.graph.AddEdge(pe1, pe2, 1.0, 0.1 * kHz).CheckOK();
  app.graph.AddEdge(pe2, sink, 1.0, 0.0).CheckOK();
  laar::model::SourceRateSet rates;
  rates.source = source;
  rates.rates = {4.0, 8.0};
  rates.labels = {"Low", "High"};
  rates.probabilities = {0.8, 0.2};
  app.input_space.AddSource(rates).CheckOK();
  app.Validate().CheckOK();
  return app;
}

void RunAndPrint(const char* label, const laar::model::ApplicationDescriptor& app,
                 const laar::model::Cluster& cluster,
                 const laar::model::ReplicaPlacement& placement,
                 const laar::strategy::ActivationStrategy& strategy,
                 const laar::dsps::InputTrace& trace) {
  laar::dsps::RuntimeOptions options;
  options.record_replica_series = true;
  laar::dsps::StreamSimulation simulation(app, cluster, placement, strategy, trace,
                                          options);
  simulation.Run().CheckOK();
  const laar::dsps::SimulationMetrics& m = simulation.metrics();

  std::printf("\n--- %s ---\n", label);
  std::printf("%4s %8s %8s %8s %8s %8s %8s\n", "t", "PE1.r0", "PE1.r1", "PE2.r0", "PE2.r1",
              "in t/s", "out t/s");
  const auto buckets = static_cast<size_t>(trace.TotalDuration());
  for (size_t t = 0; t < buckets; t += 5) {
    std::printf("%4zu %8.2f %8.2f %8.2f %8.2f %8.1f %8.1f\n", t,
                m.replica_series[1][0][t] / kHz, m.replica_series[1][1][t] / kHz,
                m.replica_series[2][0][t] / kHz, m.replica_series[2][1][t] / kHz,
                m.source_series[t], m.sink_series[t]);
  }
  std::printf("totals: in=%llu out=%llu dropped=%llu cpu=%.1f core-s\n",
              static_cast<unsigned long long>(m.source_tuples),
              static_cast<unsigned long long>(m.sink_tuples),
              static_cast<unsigned long long>(m.dropped_tuples),
              m.TotalCpuCycles() / kHz);
}

}  // namespace

int main(int argc, char** argv) {
  laar::bench::Flags flags(argc, argv);
  const double total = flags.GetDouble("total-seconds", 120.0);
  const double step_at = flags.GetDouble("step-at", 50.0);
  flags.Finish();

  laar::bench::PrintHeader(
      "Fig. 3", "pipeline CPU and in/out rates, static replication vs LAAR",
      "SR saturates during High (output < input); LAAR's output tracks the input");

  laar::model::ApplicationDescriptor app = MakePipeline();
  laar::model::Cluster cluster = laar::model::Cluster::Homogeneous(2, kHz);
  auto rates = laar::model::ExpectedRates::Compute(app.graph, app.input_space);
  rates.status().CheckOK();
  auto placement = laar::placement::PlaceRoundRobin(app.graph, cluster, 2);
  placement.status().CheckOK();
  auto trace = laar::dsps::InputTrace::Step(0, 1, step_at, total);
  trace.status().CheckOK();

  const auto sr = laar::strategy::MakeStaticReplication(app.graph, app.input_space, 2);
  RunAndPrint("(a) static active replication", app, cluster, *placement, sr, *trace);

  laar::ftsearch::FtSearchOptions search_options;
  search_options.ic_requirement = 0.6;
  auto search = laar::ftsearch::RunFtSearch(app.graph, app.input_space, *rates, *placement,
                                            cluster, search_options);
  search.status().CheckOK();
  RunAndPrint("(b) LAAR (IC >= 0.6)", app, cluster, *placement, *search->strategy, *trace);
  return 0;
}
