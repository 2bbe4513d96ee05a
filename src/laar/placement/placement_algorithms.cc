#include "laar/placement/placement_algorithms.h"

#include <algorithm>
#include <vector>

#include "laar/common/strings.h"

namespace laar::placement {

namespace {

Status CheckFeasible(const model::Cluster& cluster, int replication_factor) {
  LAAR_RETURN_IF_ERROR(cluster.Validate());
  if (replication_factor < 1) {
    return Status::InvalidArgument("replication factor must be >= 1");
  }
  if (static_cast<size_t>(replication_factor) > cluster.num_hosts()) {
    return Status::FailedPrecondition(
        StrFormat("replica anti-affinity needs at least k=%d hosts, cluster has %zu",
                  replication_factor, cluster.num_hosts()));
  }
  return Status::OK();
}

struct PeDemand {
  model::ComponentId pe;
  double demand;
};

/// Expected demand of one replica of each PE, weighted by P_C, largest
/// first (ties by PE id): the order the balanced placements fill hosts in.
/// P_C is computed once per configuration, not once per PE.
std::vector<PeDemand> ExpectedDemandsLargestFirst(const model::ApplicationGraph& graph,
                                                  const model::InputSpace& space,
                                                  const model::ExpectedRates& rates) {
  std::vector<double> probability(static_cast<size_t>(space.num_configs()));
  for (size_t c = 0; c < probability.size(); ++c) {
    probability[c] = space.Probability(static_cast<model::ConfigId>(c));
  }
  std::vector<PeDemand> demands;
  for (model::ComponentId pe : graph.Pes()) {
    double expected = 0.0;
    for (size_t c = 0; c < probability.size(); ++c) {
      expected += probability[c] * rates.CpuDemand(graph, pe, static_cast<model::ConfigId>(c));
    }
    demands.push_back(PeDemand{pe, expected});
  }
  std::sort(demands.begin(), demands.end(), [](const PeDemand& a, const PeDemand& b) {
    if (a.demand != b.demand) return a.demand > b.demand;
    return a.pe < b.pe;
  });
  return demands;
}

}  // namespace

Result<model::ReplicaPlacement> PlaceRoundRobin(const model::ApplicationGraph& graph,
                                                const model::Cluster& cluster,
                                                int replication_factor) {
  if (!graph.validated()) {
    return Status::FailedPrecondition("graph must be validated before placement");
  }
  LAAR_RETURN_IF_ERROR(CheckFeasible(cluster, replication_factor));
  const auto num_hosts = static_cast<int>(cluster.num_hosts());
  // Spacing the replicas by stride keeps them on distinct hosts and spreads
  // failure domains when k << |H|.
  const int stride = std::max(1, (num_hosts + replication_factor - 1) / replication_factor);
  model::ReplicaPlacement placement(graph.num_components(), replication_factor);
  int pe_index = 0;
  for (model::ComponentId pe : graph.Pes()) {
    for (int r = 0; r < replication_factor; ++r) {
      const int host = (pe_index + r * stride) % num_hosts;
      LAAR_RETURN_IF_ERROR(placement.Assign(pe, r, static_cast<model::HostId>(host)));
    }
    ++pe_index;
  }
  LAAR_RETURN_IF_ERROR(placement.Validate(cluster));
  return placement;
}

Result<model::ReplicaPlacement> PlaceBalanced(const model::ApplicationGraph& graph,
                                              const model::InputSpace& space,
                                              const model::ExpectedRates& rates,
                                              const model::Cluster& cluster,
                                              int replication_factor) {
  if (!graph.validated()) {
    return Status::FailedPrecondition("graph must be validated before placement");
  }
  LAAR_RETURN_IF_ERROR(CheckFeasible(cluster, replication_factor));

  model::ReplicaPlacement placement(graph.num_components(), replication_factor);
  std::vector<double> host_load(cluster.num_hosts(), 0.0);
  for (const PeDemand& pd : ExpectedDemandsLargestFirst(graph, space, rates)) {
    std::vector<bool> used(cluster.num_hosts(), false);
    for (int r = 0; r < replication_factor; ++r) {
      model::HostId best = model::kInvalidHost;
      for (size_t h = 0; h < cluster.num_hosts(); ++h) {
        if (used[h]) continue;
        if (best == model::kInvalidHost ||
            host_load[h] < host_load[static_cast<size_t>(best)]) {
          best = static_cast<model::HostId>(h);
        }
      }
      LAAR_RETURN_IF_ERROR(placement.Assign(pd.pe, r, best));
      used[static_cast<size_t>(best)] = true;
      host_load[static_cast<size_t>(best)] += pd.demand;
    }
  }
  LAAR_RETURN_IF_ERROR(placement.Validate(cluster));
  return placement;
}

Result<model::ReplicaPlacement> PlaceDomainSpread(const model::ApplicationGraph& graph,
                                                  const model::InputSpace& space,
                                                  const model::ExpectedRates& rates,
                                                  const model::Cluster& cluster,
                                                  int replication_factor,
                                                  model::DomainLevel level) {
  if (!graph.validated()) {
    return Status::FailedPrecondition("graph must be validated before placement");
  }
  LAAR_RETURN_IF_ERROR(CheckFeasible(cluster, replication_factor));
  const model::FailureTopology& topology = cluster.topology();
  LAAR_RETURN_IF_ERROR(topology.Validate(cluster.num_hosts()));

  model::ReplicaPlacement placement(graph.num_components(), replication_factor);
  std::vector<double> host_load(cluster.num_hosts(), 0.0);
  const size_t num_domains = static_cast<size_t>(topology.NumDomains(level));
  for (const PeDemand& pd : ExpectedDemandsLargestFirst(graph, space, rates)) {
    std::vector<bool> used_host(cluster.num_hosts(), false);
    std::vector<bool> used_domain(num_domains, false);
    for (int r = 0; r < replication_factor; ++r) {
      // First pass insists on a fresh failure domain; when the PE has
      // already touched every domain (k > |domains|) the second pass
      // relaxes to plain host anti-affinity.
      model::HostId best = model::kInvalidHost;
      for (int pass = 0; pass < 2 && best == model::kInvalidHost; ++pass) {
        for (size_t h = 0; h < cluster.num_hosts(); ++h) {
          if (used_host[h]) continue;
          const auto domain = static_cast<size_t>(
              topology.DomainOf(static_cast<model::HostId>(h), level));
          if (pass == 0 && used_domain[domain]) continue;
          if (best == model::kInvalidHost ||
              host_load[h] < host_load[static_cast<size_t>(best)]) {
            best = static_cast<model::HostId>(h);
          }
        }
      }
      LAAR_RETURN_IF_ERROR(placement.Assign(pd.pe, r, best));
      used_host[static_cast<size_t>(best)] = true;
      used_domain[static_cast<size_t>(topology.DomainOf(best, level))] = true;
      host_load[static_cast<size_t>(best)] += pd.demand;
    }
  }
  LAAR_RETURN_IF_ERROR(placement.Validate(cluster));
  return placement;
}

}  // namespace laar::placement
