#ifndef LAAR_STRATEGY_ACTIVATION_STRATEGY_H_
#define LAAR_STRATEGY_ACTIVATION_STRATEGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "laar/common/result.h"
#include "laar/json/json.h"
#include "laar/model/graph.h"
#include "laar/model/input_space.h"

namespace laar::strategy {

/// A replica activation strategy s : P̃ × C → {0, 1} (§4.2, Eq. 4): for
/// every PE replica and every input configuration, whether the replica is
/// active (processing) or deactivated (idle, consuming no CPU).
///
/// The default-constructed strategy activates everything — i.e. static
/// active replication. Entries for non-PE components exist in the table but
/// are ignored by all consumers.
class ActivationStrategy {
 public:
  ActivationStrategy() = default;

  /// A strategy over `num_components` components with `replication_factor`
  /// replicas and `num_configs` configurations; all replicas start active.
  ActivationStrategy(size_t num_components, int replication_factor,
                     model::ConfigId num_configs);

  int replication_factor() const { return replication_factor_; }
  model::ConfigId num_configs() const { return num_configs_; }
  size_t num_components() const { return num_components_; }

  bool IsActive(model::ComponentId pe, int replica, model::ConfigId config) const {
    return table_[Index(pe, replica, config)] != 0;
  }
  void SetActive(model::ComponentId pe, int replica, model::ConfigId config, bool active) {
    table_[Index(pe, replica, config)] = active ? 1 : 0;
  }

  /// Sets all replicas of `pe` in `config` at once.
  void SetAll(model::ComponentId pe, model::ConfigId config, bool active);

  /// Σ_h s(x̃_{pe,h}, config) — the number of active replicas (Eq. 12 LHS).
  int ActiveReplicaCount(model::ComponentId pe, model::ConfigId config) const;

  /// True when every replica of `pe` is active in `config` — the condition
  /// under which the pessimistic model credits the PE (Eq. 14).
  bool AllReplicasActive(model::ComponentId pe, model::ConfigId config) const {
    return ActiveReplicaCount(pe, config) == replication_factor_;
  }

  /// Index of the lowest-numbered active replica, or -1 when none is.
  int FirstActiveReplica(model::ComponentId pe, model::ConfigId config) const;

  /// Verifies Eq. 12: at least one replica of every PE of `graph` is active
  /// in every configuration.
  Status CheckCoverage(const model::ApplicationGraph& graph) const;

  /// Serialization to the JSON strategy file consumed by the HAController
  /// (§5.1). Layout: {"replication_factor": k, "configs": [ {"config": c,
  /// "active": [[pe, replica], ...]} ]} plus dimensions.
  json::Value ToJson() const;
  static Result<ActivationStrategy> FromJson(const json::Value& value);

  Status SaveToFile(const std::string& path) const;
  /// Reads the strategy file at `path` for an app of `num_components`
  /// components and `num_configs` configurations, deployed with
  /// `replication_factor` replicas per PE. A file that declares other
  /// dimensions is rejected, naming both shapes, before a table of its size
  /// is allocated.
  static Result<ActivationStrategy> LoadFromFile(const std::string& path,
                                                 size_t num_components,
                                                 int replication_factor,
                                                 model::ConfigId num_configs);

  friend bool operator==(const ActivationStrategy& a, const ActivationStrategy& b) {
    return a.num_components_ == b.num_components_ &&
           a.replication_factor_ == b.replication_factor_ &&
           a.num_configs_ == b.num_configs_ && a.table_ == b.table_;
  }

 private:
  size_t Index(model::ComponentId pe, int replica, model::ConfigId config) const {
    return (static_cast<size_t>(config) * num_components_ + static_cast<size_t>(pe)) *
               static_cast<size_t>(replication_factor_) +
           static_cast<size_t>(replica);
  }

  size_t num_components_ = 0;
  int replication_factor_ = 1;
  model::ConfigId num_configs_ = 0;
  std::vector<uint8_t> table_;
};

}  // namespace laar::strategy

#endif  // LAAR_STRATEGY_ACTIVATION_STRATEGY_H_
