// laar_solve — the off-line half of the LAAR workflow (Fig. 7): run
// FT-Search on an application descriptor and write the replica activation
// strategy the HAController consumes at runtime.
//
// Usage:
//   laar_solve --app=app.json --out=strategy.json --ic=0.7
//              [--hosts=12] [--capacity=1e9] [--time-limit=600]
//              [--node-limit=N] [--threads=1]
//              [--placement=balanced|roundrobin|domain]
//              [--hosts-per-rack=N] [--racks-per-zone=N]
//              [--progress[=NODES]]
//
// --hosts-per-rack / --racks-per-zone give the cluster the same uniform
// failure topology laar_simulate builds from these flags, and
// --placement=domain spreads each PE's replicas across distinct racks —
// solve with the identical flags you will simulate with, or the strategy
// is computed for a different deployment than the one it runs on.
//
// --node-limit caps the search at N stop checks (default 0: no cap). The
// search checks its budget when it enters a node and after each value it
// tries, about four times per explored node; this is the same budget as the
// corpus benches' --node-limit. With --time-limit=0 and --threads=1 the
// result is a pure function of the inputs, whatever the machine's load.
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
#include "laar/placement/placement_algorithms.h"
#include "laar/strategy/describe.h"

int main(int argc, char** argv) {
  laar::Flags flags(argc, argv);
  const std::string app_path = flags.GetString("app", "");
  const std::string out_path = flags.GetString("out", "");
  if (app_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: laar_solve --app=app.json --out=strategy.json --ic=0.7\n"
                 "       [--hosts=N] [--capacity=CYCLES_PER_SEC] [--time-limit=SECONDS]\n"
                 "       [--node-limit=STOP_CHECKS] [--threads=N]\n"
                 "       [--placement=balanced|roundrobin|domain]\n"
                 "       [--hosts-per-rack=N] [--racks-per-zone=N]\n"
                 "       [--progress[=NODES]]\n");
    return 2;
  }

  auto app = laar::model::ApplicationDescriptor::LoadFromFile(app_path);
  if (!app.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", app_path.c_str(),
                 app.status().ToString().c_str());
    return 1;
  }

  laar::model::Cluster cluster = laar::model::Cluster::Homogeneous(
      flags.GetInt("hosts", 12), flags.GetDouble("capacity", 1e9));
  const int hosts_per_rack = flags.GetInt("hosts-per-rack", 0);
  const int racks_per_zone = flags.GetInt("racks-per-zone", 0);
  if (hosts_per_rack > 0 || racks_per_zone > 0) {
    cluster.set_topology(laar::model::FailureTopology::Uniform(
        cluster.num_hosts(), hosts_per_rack, racks_per_zone));
  }
  auto rates = laar::model::ExpectedRates::Compute(app->graph, app->input_space);
  if (!rates.ok()) {
    std::fprintf(stderr, "rate analysis failed: %s\n", rates.status().ToString().c_str());
    return 1;
  }

  const std::string placement_kind = flags.GetString("placement", "balanced");
  auto placement =
      placement_kind == "roundrobin"
          ? laar::placement::PlaceRoundRobin(app->graph, cluster, 2)
      : placement_kind == "domain"
          ? laar::placement::PlaceDomainSpread(app->graph, app->input_space, *rates,
                                               cluster, 2,
                                               laar::model::DomainLevel::kRack)
          : laar::placement::PlaceBalanced(app->graph, app->input_space, *rates, cluster,
                                           2);
  if (!placement.ok()) {
    std::fprintf(stderr, "placement failed: %s\n",
                 placement.status().ToString().c_str());
    return 1;
  }

  laar::ftsearch::FtSearchOptions options;
  options.ic_requirement = flags.GetDouble("ic", 0.7);
  options.time_limit_seconds = flags.GetDouble("time-limit", 600.0);
  options.node_limit = flags.GetUint64("node-limit", 0);
  options.num_threads = flags.GetInt("threads", 1);
  if (flags.Has("progress")) {
    const uint64_t interval = flags.GetUint64("progress", 1);
    if (interval > 1) options.progress_interval_nodes = interval;
    options.progress = [](const laar::ftsearch::FtSearchProgress& progress) {
      std::fprintf(stderr, "progress: %s\n", progress.ToString().c_str());
    };
  }
  auto result = laar::ftsearch::RunFtSearch(app->graph, app->input_space, *rates,
                                            *placement, cluster, options);
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
