#ifndef LAAR_TOOLS_DEPLOYMENT_H_
#define LAAR_TOOLS_DEPLOYMENT_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "laar/common/flags.h"
#include "laar/model/cluster.h"
#include "laar/model/descriptor.h"
#include "laar/model/rates.h"
#include "laar/placement/placement_algorithms.h"

namespace laar::tools {

/// The deployment a strategy is solved for and run on. laar_solve and
/// laar_simulate both read it here: give the two the same flags, or the
/// strategy runs on a deployment it was not solved for. An unknown
/// --placement exits 2.
struct DeploymentFlags {
  explicit DeploymentFlags(const Flags& flags)
      : hosts(flags.GetInt("hosts", 12)),
        capacity(flags.GetDouble("capacity", 1e9)),
        hosts_per_rack(flags.GetInt("hosts-per-rack", 0)),
        racks_per_zone(flags.GetInt("racks-per-zone", 0)),
        placement(flags.GetString("placement", "balanced")) {
    if (placement != "balanced" && placement != "roundrobin" && placement != "domain") {
      std::fprintf(stderr, "--placement: expected balanced|roundrobin|domain, got \"%s\"\n",
                   placement.c_str());
      std::exit(2);
    }
  }
  int hosts;
  double capacity;
  int hosts_per_rack;
  int racks_per_zone;
  std::string placement;
};

struct Deployment {
  model::Cluster cluster;
  model::ExpectedRates rates;
  model::ReplicaPlacement placement;
};

/// The cluster (with a uniform failure topology when a rack or zone size is
/// set), `app`'s rates and a two-replica placement. A failing step exits 1.
inline Deployment BuildDeployment(const model::ApplicationDescriptor& app,
                                  const DeploymentFlags& flags) {
  model::Cluster cluster = model::Cluster::Homogeneous(flags.hosts, flags.capacity);
  if (flags.hosts_per_rack > 0 || flags.racks_per_zone > 0) {
    cluster.set_topology(model::FailureTopology::Uniform(
        cluster.num_hosts(), flags.hosts_per_rack, flags.racks_per_zone));
  }
  auto rates = model::ExpectedRates::Compute(app.graph, app.input_space);
  if (!rates.ok()) {
    std::fprintf(stderr, "rate analysis failed: %s\n", rates.status().ToString().c_str());
    std::exit(1);
  }
  auto replicas =
      flags.placement == "roundrobin"
          ? placement::PlaceRoundRobin(app.graph, cluster, 2)
      : flags.placement == "domain"
          ? placement::PlaceDomainSpread(app.graph, app.input_space, *rates, cluster, 2,
                                         model::DomainLevel::kRack)
          : placement::PlaceBalanced(app.graph, app.input_space, *rates, cluster, 2);
  if (!replicas.ok()) {
    std::fprintf(stderr, "placement failed: %s\n", replicas.status().ToString().c_str());
    std::exit(1);
  }
  return Deployment{std::move(cluster), std::move(*rates), std::move(*replicas)};
}

}  // namespace laar::tools

#endif  // LAAR_TOOLS_DEPLOYMENT_H_
