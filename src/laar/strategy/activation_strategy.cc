#include "laar/strategy/activation_strategy.h"

#include <limits>

#include "laar/common/strings.h"

namespace laar::strategy {

ActivationStrategy::ActivationStrategy(size_t num_components, int replication_factor,
                                       model::ConfigId num_configs)
    : num_components_(num_components),
      replication_factor_(replication_factor < 1 ? 1 : replication_factor),
      num_configs_(num_configs),
      table_(num_components * static_cast<size_t>(replication_factor_) *
                 static_cast<size_t>(num_configs),
             1) {}

void ActivationStrategy::SetAll(model::ComponentId pe, model::ConfigId config, bool active) {
  for (int r = 0; r < replication_factor_; ++r) SetActive(pe, r, config, active);
}

int ActivationStrategy::ActiveReplicaCount(model::ComponentId pe,
                                           model::ConfigId config) const {
  int count = 0;
  for (int r = 0; r < replication_factor_; ++r) {
    if (IsActive(pe, r, config)) ++count;
  }
  return count;
}

int ActivationStrategy::FirstActiveReplica(model::ComponentId pe,
                                           model::ConfigId config) const {
  for (int r = 0; r < replication_factor_; ++r) {
    if (IsActive(pe, r, config)) return r;
  }
  return -1;
}

Status ActivationStrategy::CheckCoverage(const model::ApplicationGraph& graph) const {
  for (model::ConfigId c = 0; c < num_configs_; ++c) {
    for (model::ComponentId pe : graph.Pes()) {
      if (ActiveReplicaCount(pe, c) < 1) {
        return Status::FailedPrecondition(
            StrFormat("PE %d has no active replica in configuration %d (violates Eq. 12)",
                      pe, c));
      }
    }
  }
  return Status::OK();
}

json::Value ActivationStrategy::ToJson() const {
  json::Value doc = json::Value::MakeObject();
  doc.Set("num_components", json::Value::Int(static_cast<int64_t>(num_components_)));
  doc.Set("replication_factor", json::Value::Int(replication_factor_));
  doc.Set("num_configs", json::Value::Int(num_configs_));
  json::Value configs = json::Value::MakeArray();
  for (model::ConfigId c = 0; c < num_configs_; ++c) {
    json::Value jc = json::Value::MakeObject();
    jc.Set("config", json::Value::Int(c));
    json::Value active = json::Value::MakeArray();
    for (size_t pe = 0; pe < num_components_; ++pe) {
      for (int r = 0; r < replication_factor_; ++r) {
        if (IsActive(static_cast<model::ComponentId>(pe), r, c)) {
          json::Value pair = json::Value::MakeArray();
          pair.Append(json::Value::Int(static_cast<int64_t>(pe)));
          pair.Append(json::Value::Int(r));
          active.Append(std::move(pair));
        }
      }
    }
    jc.Set("active", std::move(active));
    configs.Append(std::move(jc));
  }
  doc.Set("configs", std::move(configs));
  return doc;
}

Result<ActivationStrategy> ActivationStrategy::FromJson(const json::Value& value) {
  if (!value.is_object()) return Status::InvalidArgument("strategy must be a JSON object");
  LAAR_ASSIGN_OR_RETURN(const json::Value* nc, value.Get("num_components"));
  LAAR_ASSIGN_OR_RETURN(int64_t num_components, nc->AsInt());
  LAAR_ASSIGN_OR_RETURN(const json::Value* rf, value.Get("replication_factor"));
  LAAR_ASSIGN_OR_RETURN(int64_t replication_factor, rf->AsInt());
  LAAR_ASSIGN_OR_RETURN(const json::Value* ncfg, value.Get("num_configs"));
  LAAR_ASSIGN_OR_RETURN(int64_t num_configs, ncfg->AsInt());
  // Components, replicas and configurations are int ids.
  constexpr int64_t kMaxId = std::numeric_limits<int>::max();
  if (num_components < 0 || num_components > kMaxId || replication_factor < 1 ||
      replication_factor > kMaxId || num_configs < 0 || num_configs > kMaxId) {
    return Status::InvalidArgument("invalid strategy dimensions");
  }
  ActivationStrategy out(static_cast<size_t>(num_components),
                         static_cast<int>(replication_factor),
                         static_cast<model::ConfigId>(num_configs));
  // The JSON lists only the *active* pairs; clear the default-active table.
  std::fill(out.table_.begin(), out.table_.end(), 0);

  LAAR_ASSIGN_OR_RETURN(const json::Value* configs, value.Get("configs"));
  if (!configs->is_array()) return Status::InvalidArgument("'configs' must be an array");
  for (const json::Value& jc : configs->array()) {
    LAAR_ASSIGN_OR_RETURN(const json::Value* cfg_value, jc.Get("config"));
    LAAR_ASSIGN_OR_RETURN(int64_t config, cfg_value->AsInt());
    if (config < 0 || config >= num_configs) {
      return Status::OutOfRange(StrFormat("config %lld out of range",
                                          static_cast<long long>(config)));
    }
    LAAR_ASSIGN_OR_RETURN(const json::Value* active, jc.Get("active"));
    for (const json::Value& pair : active->array()) {
      if (!pair.is_array() || pair.array().size() != 2) {
        return Status::InvalidArgument("'active' entries must be [pe, replica] pairs");
      }
      LAAR_ASSIGN_OR_RETURN(int64_t pe, pair.array()[0].AsInt());
      LAAR_ASSIGN_OR_RETURN(int64_t replica, pair.array()[1].AsInt());
      if (pe < 0 || pe >= num_components || replica < 0 || replica >= replication_factor) {
        return Status::OutOfRange("activation pair out of range");
      }
      out.SetActive(static_cast<model::ComponentId>(pe), static_cast<int>(replica),
                    static_cast<model::ConfigId>(config), true);
    }
  }
  return out;
}

Status ActivationStrategy::SaveToFile(const std::string& path) const {
  return json::WriteFile(ToJson(), path);
}

Result<ActivationStrategy> ActivationStrategy::LoadFromFile(const std::string& path,
                                                            size_t num_components,
                                                            int replication_factor,
                                                            model::ConfigId num_configs) {
  LAAR_ASSIGN_OR_RETURN(json::Value doc, json::ParseFile(path));
  json::Value want = json::Value::MakeObject();
  want.Set("num_components", json::Value::Int(static_cast<int64_t>(num_components)));
  want.Set("replication_factor", json::Value::Int(replication_factor));
  want.Set("num_configs", json::Value::Int(num_configs));
  // Each dimension's JSON text, "null" when the key is missing.
  const auto shape = [](const json::Value& v) {
    std::string out;
    for (const char* key : {"num_components", "replication_factor", "num_configs"}) {
      out += StrFormat("%s%s=%s", out.empty() ? "" : " ", key,
                       v.GetOr(key, json::Value()).Dump().c_str());
    }
    return out;
  };
  if (shape(doc) != shape(want)) {
    return Status::InvalidArgument(StrFormat("%s declares %s, but the app and deployment have %s",
                                             path.c_str(), shape(doc).c_str(),
                                             shape(want).c_str()));
  }
  return FromJson(doc);
}

}  // namespace laar::strategy
