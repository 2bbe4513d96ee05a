#ifndef LAAR_RUNTIME_VARIANTS_H_
#define LAAR_RUNTIME_VARIANTS_H_

#include <optional>
#include <string>
#include <vector>

#include "laar/appgen/app_generator.h"
#include "laar/common/result.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/strategy/activation_strategy.h"

namespace laar::runtime {

/// One replication variant of the §5.2 comparison: a named activation
/// strategy, plus the FT-Search result when the strategy came out of the
/// optimizer (the L.x variants).
struct NamedVariant {
  std::string name;
  strategy::ActivationStrategy strategy;
  std::optional<ftsearch::FtSearchResult> search;
  /// The IC requirement used to produce this variant (L.x only).
  double ic_requirement = 0.0;
};

/// Options for building the comparison set.
struct VariantBuildOptions {
  /// IC requirements of the LAAR variants; 0.5/0.6/0.7 are the paper's
  /// L.5/L.6/L.7.
  std::vector<double> laar_ic_requirements = {0.5, 0.6, 0.7};
  /// FT-Search budget per LAAR variant.
  double ftsearch_time_limit_seconds = 60.0;
  /// Deterministic FT-Search budget: abort after exploring this many nodes
  /// (0 = unlimited). Unlike the wall-clock limit, a node budget makes the
  /// success/failure of BuildVariants independent of machine load, which the
  /// parallel corpus runner relies on for --jobs-invariant seed selection.
  uint64_t ftsearch_node_limit = 0;
};

/// Builds the full §5.2 variant set for one generated application, in the
/// paper's order: NR, SR, GRD, then one L.x per requested IC requirement.
/// Fails when FT-Search cannot produce a feasible strategy for some L.x
/// (callers typically skip such applications, as the paper's corpus only
/// contains solvable instances).
Result<std::vector<NamedVariant>> BuildVariants(const appgen::GeneratedApplication& app,
                                                const VariantBuildOptions& options);

}  // namespace laar::runtime

#endif  // LAAR_RUNTIME_VARIANTS_H_
