// laar_inspect — summarize an application descriptor (JSON or SPL text):
// components, per-configuration rates and CPU demands, BIC, and optionally
// a Graphviz rendering.
//
// --app is required; --spl reads it as SPL text instead of JSON, and --dot
// appends the Graphviz rendering.

#include <cstdio>
#include <string>

#include "laar/common/flags.h"
#include "laar/common/strings.h"
#include "laar/metrics/ic.h"
#include "laar/model/descriptor.h"
#include "laar/model/dot.h"
#include "laar/model/rates.h"
#include "laar/spl/spl_parser.h"

int main(int argc, char** argv) {
  laar::Flags flags(argc, argv);
  const std::string path = flags.GetString("app", "");
  const bool spl = flags.Has("spl");
  const bool dot = flags.Has("dot");
  flags.Finish();
  if (path.empty()) {
    std::fprintf(stderr, "laar_inspect: --app is required (see --help)\n");
    return 2;
  }

  auto app = spl ? laar::spl::ParseApplicationFile(path)
                 : laar::model::ApplicationDescriptor::LoadFromFile(path);
  if (!app.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 app.status().ToString().c_str());
    return 1;
  }

  const laar::model::ApplicationGraph& graph = app->graph;
  std::printf("application '%s': %zu sources, %zu PEs, %zu sinks, %zu streams\n",
              app->name.c_str(), graph.Sources().size(), graph.num_pes(),
              graph.Sinks().size(), graph.num_edges());

  auto rates = laar::model::ExpectedRates::Compute(graph, app->input_space);
  if (!rates.ok()) {
    std::fprintf(stderr, "rate analysis failed: %s\n", rates.status().ToString().c_str());
    return 1;
  }
  const laar::metrics::IcCalculator calculator(graph, app->input_space, *rates);

  std::printf("\ninput configurations (|C| = %d):\n", app->input_space.num_configs());
  for (laar::model::ConfigId c = 0; c < app->input_space.num_configs(); ++c) {
    double demand = 0.0;
    for (laar::model::ComponentId pe : graph.Pes()) {
      demand += rates->CpuDemand(graph, pe, c);
    }
    std::printf("  %-16s P=%.4f  total demand %.4g cycles/s  PE arrivals %.2f t/s\n",
                app->input_space.ConfigLabel(c).c_str(), app->input_space.Probability(c),
                demand, calculator.BestCaseOfConfig(c));
  }
  std::printf("expected tuples processed per second (BIC/T): %.3f\n",
              calculator.BestCase());

  std::printf("\nper-PE peak demand:\n");
  const laar::model::ConfigId peak = app->input_space.PeakConfig();
  for (laar::model::ComponentId pe : graph.Pes()) {
    std::printf("  %-24s %10.4g cycles/s  (in %5.2f t/s, out %5.2f t/s)\n",
                graph.component(pe).name.c_str(), rates->CpuDemand(graph, pe, peak),
                rates->ArrivalRate(graph, pe, peak), rates->Rate(pe, peak));
  }

  if (dot) {
    std::printf("\n%s", laar::model::ToDot(graph).c_str());
  }
  return 0;
}
