// Smart-city traffic monitoring — the motivating scenario of §1.
//
// A fleet of vehicles reports positions ("probe" stream) and roadside
// sensors report flow counts. The application fuses them through a small
// DAG (map-matching, aggregation, congestion scoring, signal control) and
// must keep control decisions timely during rush hour, when probe traffic
// triples. Perfect fault tolerance is not required — probe data is
// spatially and temporally redundant — so the operator signs an SLA with
// internal completeness 0.6 and lets LAAR reclaim replica capacity during
// the peak.
//
// The example walks the full LAAR workflow:
//   descriptor -> placement -> FT-Search strategy -> strategy JSON file ->
//   simulated deployment under a rush-hour trace, with and without a
//   failure, comparing against static replication.

#include <cstdio>

#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/metrics/cost.h"
#include "laar/metrics/failure_model.h"
#include "laar/metrics/ic.h"
#include "laar/model/descriptor.h"
#include "laar/placement/placement_algorithms.h"
#include "laar/strategy/baselines.h"

namespace {

constexpr double kHz = 1e9;  // host CPU cycles/second

laar::model::ApplicationDescriptor MakeTrafficApp() {
  using laar::model::SourceRateSet;
  laar::model::ApplicationDescriptor app;
  app.name = "traffic-monitoring";

  const auto probes = app.graph.AddSource("vehicle-probes");
  const auto sensors = app.graph.AddSource("road-sensors");
  const auto map_match = app.graph.AddPe("map-matcher");
  const auto probe_agg = app.graph.AddPe("probe-aggregator");
  const auto sensor_agg = app.graph.AddPe("sensor-aggregator");
  const auto fusion = app.graph.AddPe("congestion-fusion");
  const auto scorer = app.graph.AddPe("congestion-scorer");
  const auto control = app.graph.AddPe("signal-controller");
  const auto dashboard = app.graph.AddSink("city-dashboard");
  const auto signals = app.graph.AddSink("traffic-signals");

  // Per-tuple costs in CPU-seconds at 1 GHz; selectivities reflect
  // aggregation (down-sampling) steps.
  auto cost = [](double seconds) { return seconds * kHz; };
  app.graph.AddEdge(probes, map_match, 1.0, cost(0.012)).CheckOK();
  app.graph.AddEdge(map_match, probe_agg, 0.5, cost(0.010)).CheckOK();
  app.graph.AddEdge(sensors, sensor_agg, 0.6, cost(0.015)).CheckOK();
  app.graph.AddEdge(probe_agg, fusion, 1.0, cost(0.018)).CheckOK();
  app.graph.AddEdge(sensor_agg, fusion, 1.0, cost(0.012)).CheckOK();
  app.graph.AddEdge(fusion, scorer, 0.8, cost(0.020)).CheckOK();
  app.graph.AddEdge(scorer, control, 0.7, cost(0.016)).CheckOK();
  app.graph.AddEdge(scorer, dashboard, 1.0, 0.0).CheckOK();
  app.graph.AddEdge(control, signals, 1.0, 0.0).CheckOK();

  // Off-peak vs rush-hour rates; rush hour holds ~25% of the day.
  SourceRateSet probe_rates;
  probe_rates.source = probes;
  probe_rates.rates = {12.0, 36.0};
  probe_rates.labels = {"offpeak", "rush"};
  probe_rates.probabilities = {0.75, 0.25};
  app.input_space.AddSource(probe_rates).CheckOK();

  SourceRateSet sensor_rates;
  sensor_rates.source = sensors;
  sensor_rates.rates = {10.0, 20.0};
  sensor_rates.labels = {"offpeak", "rush"};
  sensor_rates.probabilities = {0.75, 0.25};
  app.input_space.AddSource(sensor_rates).CheckOK();

  app.Validate().CheckOK();
  return app;
}

void Report(const char* label, const laar::dsps::SimulationMetrics& m) {
  std::printf("  %-24s cpu=%8.2f core-s  out=%6llu  dropped=%5llu  processed=%7llu\n",
              label, m.TotalCpuCycles() / kHz,
              static_cast<unsigned long long>(m.sink_tuples),
              static_cast<unsigned long long>(m.dropped_tuples),
              static_cast<unsigned long long>(m.TotalProcessed()));
}

}  // namespace

int main() {
  laar::model::ApplicationDescriptor app = MakeTrafficApp();

  // A small city deployment: 3 hosts, one core each.
  laar::model::Cluster cluster = laar::model::Cluster::Homogeneous(3, kHz);
  auto rates = laar::model::ExpectedRates::Compute(app.graph, app.input_space);
  rates.status().CheckOK();
  auto placement =
      laar::placement::PlaceBalanced(app.graph, app.input_space, *rates, cluster, 2);
  placement.status().CheckOK();

  // --- Off-line: compute the activation strategy for IC >= 0.6. ---
  laar::ftsearch::FtSearchOptions options;
  options.ic_requirement = 0.6;
  auto search = laar::ftsearch::RunFtSearch(app.graph, app.input_space, *rates, *placement,
                                            cluster, options);
  search.status().CheckOK();
  std::printf("FT-Search: %s\n", search->ToString().c_str());
  if (!search->strategy.has_value()) {
    std::printf("no feasible strategy at IC 0.6 — relax the SLA or add hosts\n");
    return 1;
  }

  // The HAController consumes the strategy as a JSON file (§5.1).
  const std::string strategy_path = "/tmp/laar_traffic_strategy.json";
  search->strategy->SaveToFile(strategy_path).CheckOK();
  auto reloaded = laar::strategy::ActivationStrategy::LoadFromFile(
      strategy_path, app.graph.num_components(), placement->replication_factor(),
      app.input_space.num_configs());
  reloaded.status().CheckOK();
  std::printf("strategy written to %s and reloaded (%d configs)\n\n", strategy_path.c_str(),
              reloaded->num_configs());

  // --- On-line: a day-fragment trace with two rush hours. ---
  // Configurations: 0 = both off-peak, 3 = both rush (mixed-radix order).
  auto trace = laar::dsps::InputTrace::Alternating(/*base=*/0, /*base_s=*/180.0,
                                                   /*peak=*/3, /*peak_s=*/60.0,
                                                   /*cycles=*/2);
  trace.status().CheckOK();
  laar::dsps::RuntimeOptions runtime;

  const auto sr = laar::strategy::MakeStaticReplication(app.graph, app.input_space, 2);

  std::printf("no failures:\n");
  for (const auto& [label, strategy] :
       {std::pair<const char*, const laar::strategy::ActivationStrategy*>{"static "
                                                                          "replication",
                                                                          &sr},
        {"LAAR (IC>=0.6)", &*reloaded}}) {
    laar::dsps::StreamSimulation sim(app, cluster, *placement, *strategy, *trace, runtime);
    sim.Run().CheckOK();
    Report(label, sim.metrics());
  }

  std::printf("\nhost 0 crashes during the first rush hour (16 s recovery):\n");
  for (const auto& [label, strategy] :
       {std::pair<const char*, const laar::strategy::ActivationStrategy*>{"static "
                                                                          "replication",
                                                                          &sr},
        {"LAAR (IC>=0.6)", &*reloaded}}) {
    laar::dsps::StreamSimulation sim(app, cluster, *placement, *strategy, *trace, runtime);
    sim.ScheduleHostCrash(0, 190.0, 16.0).CheckOK();
    sim.Run().CheckOK();
    Report(label, sim.metrics());
  }

  const laar::metrics::IcCalculator calc(app.graph, app.input_space, *rates);
  const laar::metrics::PessimisticFailureModel pessimistic;
  std::printf("\nguaranteed IC lower bound (pessimistic model): %.3f\n",
              calc.InternalCompleteness(*reloaded, pessimistic));
  std::printf("CPU cost: LAAR %.3g vs SR %.3g cycles/s (%.0f%% saved)\n",
              laar::metrics::CostPerSecond(app.graph, app.input_space, *rates, *placement,
                                           *reloaded),
              laar::metrics::CostPerSecond(app.graph, app.input_space, *rates, *placement,
                                           sr),
              100.0 * (1.0 - laar::metrics::CostPerSecond(app.graph, app.input_space,
                                                          *rates, *placement, *reloaded) /
                                 laar::metrics::CostPerSecond(app.graph, app.input_space,
                                                              *rates, *placement, sr)));
  return 0;
}
