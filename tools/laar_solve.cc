// laar_solve — the off-line half of the LAAR workflow (Fig. 7): run
// FT-Search on an application descriptor and write the replica activation
// strategy the HAController consumes at runtime.
//
// `--help` lists the flags; --app and --out are required. The deployment
// flags (tools/deployment.h) are read as laar_simulate reads them: solve
// with the flags you will simulate with.
//
// --node-limit caps the search at N stop checks (default 0: no cap). The
// search checks its budget when it enters a node and after each value it
// tries, about four times per explored node; this is the same budget as the
// corpus benches' --node-limit. With --time-limit=0 the result is a pure
// function of the inputs, whatever the machine's load.
//
// --progress streams live search snapshots (nodes explored, incumbent cost,
// per-rule prune counts) to stderr, roughly every NODES explored nodes
// (default 65536). The stream is observational: it never changes the result.

#include <cstdio>
#include <string>

#include "laar/common/flags.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/metrics/cost.h"
#include "laar/model/descriptor.h"
#include "laar/strategy/describe.h"
#include "tools/deployment.h"

int main(int argc, char** argv) {
  laar::Flags flags(argc, argv);
  const std::string app_path = flags.GetString("app", "");
  const std::string out_path = flags.GetString("out", "");
  const laar::tools::DeploymentFlags deployment_flags(flags);
  laar::ftsearch::FtSearchOptions options;
  options.ic_requirement = flags.GetDouble("ic", 0.7);
  options.time_limit_seconds = flags.GetDouble("time-limit", 600.0);
  options.node_limit = flags.GetUint64("node-limit", 0);
  if (flags.Has("progress")) {
    const uint64_t interval = flags.GetUint64("progress", 1);
    if (interval > 1) options.progress_interval_nodes = interval;
    options.progress = [](const laar::ftsearch::FtSearchProgress& progress) {
      std::fprintf(stderr, "progress: %s\n", progress.ToString().c_str());
    };
  }
  flags.Finish();
  if (app_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "laar_solve: --app and --out are required (see --help)\n");
    return 2;
  }

  auto app = laar::model::ApplicationDescriptor::LoadFromFile(app_path);
  if (!app.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", app_path.c_str(),
                 app.status().ToString().c_str());
    return 1;
  }
  const auto deployment = laar::tools::BuildDeployment(*app, deployment_flags);

  auto result = laar::ftsearch::RunFtSearch(app->graph, app->input_space,
                                            deployment.rates, deployment.placement,
                                            deployment.cluster, options);
  if (!result.ok()) {
    std::fprintf(stderr, "FT-Search failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("FT-Search: %s\n", result->ToString().c_str());
  if (!result->strategy.has_value()) {
    std::fprintf(stderr, "no feasible strategy (outcome %s)\n",
                 laar::ftsearch::SearchOutcomeName(result->outcome));
    return 3;
  }

  const laar::Status status = result->strategy->SaveToFile(out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: IC >= %.4f at %.4g cycles/s (%s)\n", out_path.c_str(),
              result->best_ic, result->best_cost,
              laar::ftsearch::SearchOutcomeName(result->outcome));
  std::printf("%s", laar::strategy::Describe(app->graph, app->input_space,
                                             *result->strategy)
                        .c_str());
  return 0;
}
