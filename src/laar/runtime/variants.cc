#include "laar/runtime/variants.h"

#include <algorithm>
#include <functional>

#include "laar/common/strings.h"
#include "laar/strategy/baselines.h"

namespace laar::runtime {

Result<std::vector<NamedVariant>> BuildVariants(const appgen::GeneratedApplication& app,
                                                const VariantBuildOptions& options) {
  const model::ApplicationGraph& graph = app.descriptor.graph;
  const model::InputSpace& space = app.descriptor.input_space;
  LAAR_ASSIGN_OR_RETURN(model::ExpectedRates rates,
                        model::ExpectedRates::Compute(graph, space));

  // LAAR variants first: NR is derived from the lowest-IC one (§5.2).
  // Solve the strictest requirement first — when an instance is unusable
  // it is almost always the highest IC that is infeasible, and failing
  // fast there avoids burning search budget on the easier variants.
  std::vector<double> requirements = options.laar_ic_requirements;
  std::sort(requirements.begin(), requirements.end(), std::greater<double>());
  std::vector<NamedVariant> laar_variants;
  for (double ic : requirements) {
    ftsearch::FtSearchOptions search_options;
    search_options.ic_requirement = ic;
    search_options.time_limit_seconds = options.ftsearch_time_limit_seconds;
    search_options.node_limit = options.ftsearch_node_limit;
    LAAR_ASSIGN_OR_RETURN(ftsearch::FtSearchResult result,
                          ftsearch::RunFtSearch(graph, space, rates, app.placement,
                                                app.cluster, search_options));
    if (!result.strategy.has_value()) {
      return Status::FailedPrecondition(
          StrFormat("FT-Search found no feasible strategy for IC >= %.2f (%s)", ic,
                    ftsearch::SearchOutcomeName(result.outcome)));
    }
    NamedVariant variant;
    // "L.5" for 0.5, "L.65" for 0.65, etc.
    std::string suffix = StrFormat("%g", ic);
    variant.name = "L" + suffix.substr(suffix.find('0') == 0 ? 1 : 0);
    variant.strategy = *result.strategy;
    variant.search = result;
    variant.ic_requirement = ic;
    laar_variants.push_back(std::move(variant));
  }
  if (laar_variants.empty()) {
    return Status::InvalidArgument("at least one LAAR IC requirement is needed");
  }
  // Restore ascending order: callers and the paper list L.5, L.6, L.7.
  std::reverse(laar_variants.begin(), laar_variants.end());

  std::vector<NamedVariant> out;

  NamedVariant nr;
  nr.name = "NR";
  nr.strategy = strategy::MakeNonReplicated(graph, space, laar_variants.front().strategy,
                                            space.PeakConfig());
  out.push_back(std::move(nr));

  NamedVariant sr;
  sr.name = "SR";
  sr.strategy = strategy::MakeStaticReplication(graph, space,
                                                app.placement.replication_factor());
  out.push_back(std::move(sr));

  NamedVariant grd;
  grd.name = "GRD";
  grd.strategy = strategy::MakeGreedy(graph, space, rates, app.placement, app.cluster);
  out.push_back(std::move(grd));

  for (NamedVariant& variant : laar_variants) out.push_back(std::move(variant));
  return out;
}

}  // namespace laar::runtime
