#include "laar/appgen/app_generator.h"

#include <algorithm>
#include <set>
#include <vector>

#include "laar/common/rng.h"
#include "laar/common/strings.h"
#include "laar/metrics/cost.h"
#include "laar/placement/placement_algorithms.h"
#include "laar/strategy/activation_strategy.h"

namespace laar::appgen {

namespace {

Status CheckOptions(const GeneratorOptions& options) {
  if (options.num_pes < 1) return Status::InvalidArgument("num_pes must be >= 1");
  if (options.num_sources < 1) return Status::InvalidArgument("num_sources must be >= 1");
  if (options.num_sinks < 1) return Status::InvalidArgument("num_sinks must be >= 1");
  if (options.replication_factor < 1) {
    return Status::InvalidArgument("replication_factor must be >= 1");
  }
  if (options.num_hosts < options.replication_factor) {
    return Status::InvalidArgument("need at least replication_factor hosts");
  }
  if (options.host_capacity <= 0.0) {
    return Status::InvalidArgument("host_capacity must be positive");
  }
  if (options.out_degree_min < 1.0 || options.out_degree_max < options.out_degree_min) {
    return Status::InvalidArgument("invalid out-degree range");
  }
  if (options.rate_min <= 0.0 || options.rate_max < options.rate_min) {
    return Status::InvalidArgument("invalid rate range");
  }
  if (options.low_probability <= 0.0 || options.low_probability >= 1.0) {
    return Status::InvalidArgument("low_probability must be in (0, 1)");
  }
  if (options.low_load_max <= 0.0 || options.low_load_max >= 1.0) {
    return Status::InvalidArgument("low_load_max must be in (0, 1)");
  }
  if (options.high_overload_min <= 1.0 ||
      options.high_overload_max < options.high_overload_min) {
    return Status::InvalidArgument(
        "need high_overload_max >= high_overload_min > 1");
  }
  return Status::OK();
}

/// One generation attempt: build a random DAG with unit-scale CPU costs,
/// then calibrate the cost scale against the placement-induced host loads.
/// Returns an error when the attempt misses the calibration targets (the
/// caller resamples).
Result<GeneratedApplication> TryGenerate(const GeneratorOptions& options, Rng* rng) {
  GeneratedApplication out;
  model::ApplicationGraph& graph = out.descriptor.graph;
  out.descriptor.name = "synthetic";

  std::vector<model::ComponentId> sources;
  std::vector<model::ComponentId> pes;
  std::vector<model::ComponentId> sinks;
  for (int i = 0; i < options.num_sources; ++i) {
    sources.push_back(graph.AddSource(StrFormat("src%d", i)));
  }
  for (int i = 0; i < options.num_pes; ++i) {
    pes.push_back(graph.AddPe(StrFormat("pe%d", i)));
  }
  for (int i = 0; i < options.num_sinks; ++i) {
    sinks.push_back(graph.AddSink(StrFormat("sink%d", i)));
  }

  // --- Random DAG construction. ---
  // PEs are created in topological positions: PE i may receive edges from
  // any source and from PEs 0..i-1. First give every PE one mandatory
  // predecessor (the "backbone"), then add extra edges until the average
  // outgoing degree of non-sink components reaches the sampled target.
  const double target_degree = rng->Uniform(options.out_degree_min, options.out_degree_max);
  std::set<std::pair<model::ComponentId, model::ComponentId>> edge_set;
  auto add_pe_edge = [&](model::ComponentId from, model::ComponentId to) -> Status {
    const double selectivity = rng->Uniform(options.selectivity_min, options.selectivity_max);
    // Cost placeholder; real costs are derived from per-PE demand shares
    // once the expected rates are known (see below).
    edge_set.insert({from, to});
    return graph.AddEdge(from, to, selectivity, 0.0);
  };

  for (int i = 0; i < options.num_pes; ++i) {
    // Mandatory predecessor: prefer recent PEs to get deep graphs, fall
    // back to a random source for the first PEs.
    model::ComponentId from;
    if (i == 0) {
      from = sources[static_cast<size_t>(rng->UniformInt(0, options.num_sources - 1))];
    } else {
      const int64_t pick = rng->UniformInt(-options.num_sources, i - 1);
      from = pick < 0 ? sources[static_cast<size_t>(-pick - 1)]
                      : pes[static_cast<size_t>(pick)];
    }
    LAAR_RETURN_IF_ERROR(add_pe_edge(from, pes[static_cast<size_t>(i)]));
  }

  const size_t non_sink_count = sources.size() + pes.size();
  const auto target_edges = static_cast<size_t>(target_degree *
                                                static_cast<double>(non_sink_count));
  int stale = 0;
  while (edge_set.size() < target_edges && stale < 200) {
    // Pick an ordered pair (earlier -> later) among sources and PEs.
    const int64_t to_index = rng->UniformInt(0, options.num_pes - 1);
    const int64_t from_pick = rng->UniformInt(-options.num_sources, to_index - 1);
    const model::ComponentId to = pes[static_cast<size_t>(to_index)];
    const model::ComponentId from = from_pick < 0
                                        ? sources[static_cast<size_t>(-from_pick - 1)]
                                        : pes[static_cast<size_t>(from_pick)];
    if (edge_set.count({from, to}) != 0) {
      ++stale;
      continue;
    }
    stale = 0;
    LAAR_RETURN_IF_ERROR(add_pe_edge(from, to));
  }

  // Every PE without a successor feeds a random sink, so all results leave
  // the graph.
  for (model::ComponentId pe : pes) {
    if (graph.OutgoingEdges(pe).empty()) {
      const model::ComponentId sink =
          sinks[static_cast<size_t>(rng->UniformInt(0, options.num_sinks - 1))];
      LAAR_RETURN_IF_ERROR(graph.AddEdge(pe, sink, 1.0, 0.0));
    }
  }
  // Every source without a successor feeds a random PE, so all input enters
  // the graph (few PEs per source can leave one unpicked by the draws above).
  for (model::ComponentId source : sources) {
    if (graph.OutgoingEdges(source).empty()) {
      LAAR_RETURN_IF_ERROR(add_pe_edge(
          source, pes[static_cast<size_t>(rng->UniformInt(0, options.num_pes - 1))]));
    }
  }
  LAAR_RETURN_IF_ERROR(graph.Validate());

  // --- Source rates: two levels, both U(rate_min, rate_max), Low < High. ---
  for (model::ComponentId source : sources) {
    double low = rng->Uniform(options.rate_min, options.rate_max);
    double high = rng->Uniform(options.rate_min, options.rate_max);
    if (low > high) std::swap(low, high);
    if (high - low < 1e-6) {
      return Status::Internal("degenerate rate draw");  // resample
    }
    model::SourceRateSet rate_set;
    rate_set.source = source;
    rate_set.rates = {low, high};
    rate_set.labels = {"Low", "High"};
    rate_set.probabilities = {options.low_probability, 1.0 - options.low_probability};
    LAAR_RETURN_IF_ERROR(out.descriptor.input_space.AddSource(rate_set));
  }
  LAAR_RETURN_IF_ERROR(out.descriptor.Validate());

  // --- Per-edge CPU costs from per-PE demand shares. ---
  // Drawing per-edge costs independently would let multiplicative
  // selectivity chains produce PEs whose *single-replica* demand exceeds a
  // whole host at High — making every activation strategy infeasible
  // (Eq. 11) regardless of IC. Instead every PE draws a relative demand
  // share u ~ U(0.5, 1.5), realized at the High configuration and split
  // across its input ports with random weights; per-edge costs follow as
  // γ_e = share_e / Δ(from_e, High).
  auto rebuild_with_costs =
      [&graph](const std::vector<double>& edge_costs) -> Result<model::ApplicationGraph> {
    model::ApplicationGraph rebuilt;
    for (const model::Component& component : graph.components()) {
      switch (component.kind) {
        case model::ComponentKind::kSource:
          rebuilt.AddSource(component.name);
          break;
        case model::ComponentKind::kPe:
          rebuilt.AddPe(component.name);
          break;
        case model::ComponentKind::kSink:
          rebuilt.AddSink(component.name);
          break;
      }
    }
    for (size_t i = 0; i < graph.edges().size(); ++i) {
      const model::Edge& e = graph.edges()[i];
      LAAR_RETURN_IF_ERROR(rebuilt.AddEdge(e.from, e.to, e.selectivity, edge_costs[i]));
    }
    LAAR_RETURN_IF_ERROR(rebuilt.Validate());
    return rebuilt;
  };

  LAAR_ASSIGN_OR_RETURN(model::ExpectedRates shape_rates,
                        model::ExpectedRates::Compute(graph, out.descriptor.input_space));
  const model::ConfigId peak = out.descriptor.input_space.PeakConfig();
  std::vector<double> edge_costs(graph.num_edges(), 0.0);
  for (model::ComponentId pe : pes) {
    const double demand_share = rng->Uniform(0.5, 1.5);
    const auto& incoming = graph.IncomingEdges(pe);
    std::vector<double> weights;
    double weight_total = 0.0;
    for (size_t i = 0; i < incoming.size(); ++i) {
      weights.push_back(rng->Uniform(0.5, 1.5));
      weight_total += weights.back();
    }
    for (size_t i = 0; i < incoming.size(); ++i) {
      const model::Edge& e = graph.edges()[incoming[i]];
      const double upstream_rate = shape_rates.Rate(e.from, peak);
      if (upstream_rate <= 1e-9) {
        return Status::Internal("degenerate zero-rate upstream");  // resample
      }
      edge_costs[incoming[i]] = demand_share * weights[i] / (weight_total * upstream_rate);
    }
  }
  {
    LAAR_ASSIGN_OR_RETURN(model::ApplicationGraph shaped, rebuild_with_costs(edge_costs));
    out.descriptor.graph = std::move(shaped);
  }

  // --- Placement on the target cluster. ---
  out.cluster = model::Cluster::Homogeneous(options.num_hosts, options.host_capacity);
  if (options.hosts_per_rack > 0 || options.racks_per_zone > 0) {
    out.cluster.set_topology(model::FailureTopology::Uniform(
        out.cluster.num_hosts(), options.hosts_per_rack, options.racks_per_zone));
  }
  LAAR_ASSIGN_OR_RETURN(model::ExpectedRates raw_rates,
                        model::ExpectedRates::Compute(out.descriptor.graph,
                                                      out.descriptor.input_space));
  if (options.domain_aware_placement && !out.cluster.topology().IsTrivial()) {
    LAAR_ASSIGN_OR_RETURN(
        out.placement,
        placement::PlaceDomainSpread(out.descriptor.graph, out.descriptor.input_space,
                                     raw_rates, out.cluster, options.replication_factor,
                                     model::DomainLevel::kRack));
  } else {
    LAAR_ASSIGN_OR_RETURN(
        out.placement,
        placement::PlaceBalanced(out.descriptor.graph, out.descriptor.input_space,
                                 raw_rates, out.cluster, options.replication_factor));
  }

  // --- CPU cost calibration (§5.2 conditions i and ii). ---
  // A uniform scale factor anchors the fully-active all-High peak host
  // load just above capacity; it leaves the balanced placement unchanged
  // (placement only depends on relative demands).
  const strategy::ActivationStrategy all_active(
      graph.num_components(), options.replication_factor,
      out.descriptor.input_space.num_configs());
  auto max_load = [&](const model::ExpectedRates& rates, model::ConfigId c) {
    const std::vector<double> loads = metrics::HostLoads(
        out.descriptor.graph, rates, out.placement, all_active, out.cluster, c);
    return *std::max_element(loads.begin(), loads.end());
  };
  // With mixed-radix config encoding and every source having (Low, High)
  // levels, config 0 is all-Low and the last config is all-High.
  const model::ConfigId low_config = 0;
  const double high_load_raw = max_load(raw_rates, peak);
  if (high_load_raw <= 0.0) return Status::Internal("degenerate zero-load application");
  const double overload_target =
      rng->Uniform(options.high_overload_min, options.high_overload_max);
  const double scale = overload_target * options.host_capacity / high_load_raw;
  for (double& cost : edge_costs) cost *= scale;
  {
    LAAR_ASSIGN_OR_RETURN(model::ApplicationGraph scaled, rebuild_with_costs(edge_costs));
    out.descriptor.graph = std::move(scaled);
  }
  LAAR_ASSIGN_OR_RETURN(model::ExpectedRates rates,
                        model::ExpectedRates::Compute(out.descriptor.graph,
                                                      out.descriptor.input_space));

  // Condition i: all replicas active must not overload under "Low"; fails
  // when the High/Low rate ratio is too small for the chosen overload
  // anchor, in which case the attempt is resampled.
  const double low_load = max_load(rates, low_config);
  if (low_load > options.low_load_max * options.host_capacity) {
    return Status::Internal("low configuration overloaded after calibration");
  }
  // Condition ii holds by construction; keep the check as a guard.
  const double high_load = max_load(rates, peak);
  if (high_load < options.high_overload_min * options.host_capacity) {
    return Status::Internal("high configuration does not overload the deployment");
  }
  // No single PE may exceed a host on its own at High — such instances are
  // infeasible for every strategy and would never enter the paper's
  // (solvable) corpus.
  for (model::ComponentId pe : pes) {
    if (rates.CpuDemand(out.descriptor.graph, pe, peak) >
        0.85 * options.host_capacity) {
      return Status::Internal("a single PE exceeds host capacity at High");
    }
  }
  return out;
}

}  // namespace

Result<GeneratedApplication> GenerateApplication(const GeneratorOptions& options,
                                                 uint64_t seed) {
  LAAR_RETURN_IF_ERROR(CheckOptions(options));
  Rng rng(seed);
  Status last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    Rng attempt_rng = rng.Fork();
    Result<GeneratedApplication> result = TryGenerate(options, &attempt_rng);
    if (result.ok()) {
      result->descriptor.name = StrFormat("synthetic-%llu",
                                          static_cast<unsigned long long>(seed));
      return result;
    }
    // Hard parameter errors will not improve with resampling.
    if (result.status().code() != StatusCode::kInternal) return result.status();
    last = result.status();
  }
  return last.WithContext(
      StrFormat("failed to generate a calibrated application after %d attempts",
                options.max_attempts));
}

GeneratorOptions WebScaleProfile() {
  GeneratorOptions options;
  options.num_pes = 2048;
  options.num_sources = 8;
  options.num_sinks = 4;
  options.num_hosts = 256;
  options.hosts_per_rack = 8;
  options.racks_per_zone = 4;
  options.domain_aware_placement = true;
  // Effective branching = out_degree × selectivity ≈ 1.5 × 0.65 ≈ 0.98:
  // per-edge rates stay near the source rate through the whole graph
  // instead of growing geometrically with depth.
  options.out_degree_min = 1.2;
  options.out_degree_max = 1.8;
  options.selectivity_min = 0.4;
  options.selectivity_max = 0.9;
  options.rate_min = 400.0;
  options.rate_max = 800.0;
  return options;
}

}  // namespace laar::appgen
