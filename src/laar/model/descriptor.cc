#include "laar/model/descriptor.h"

#include <string_view>

#include "laar/common/strings.h"

namespace laar::model {

namespace {

Result<ComponentKind> KindFromString(std::string_view kind) {
  if (kind == "source") return ComponentKind::kSource;
  if (kind == "pe") return ComponentKind::kPe;
  if (kind == "sink") return ComponentKind::kSink;
  return Status::InvalidArgument(StrFormat("unknown component kind '%.*s'",
                                           static_cast<int>(kind.size()), kind.data()));
}

}  // namespace

Status ApplicationDescriptor::Validate() {
  LAAR_RETURN_IF_ERROR(graph.Validate());
  LAAR_RETURN_IF_ERROR(input_space.Validate());
  for (ComponentId source : graph.Sources()) {
    if (!input_space.SourceIndexOf(source).ok()) {
      return Status::InvalidArgument(
          StrFormat("graph source %d has no rate set in the descriptor", source));
    }
  }
  for (const SourceRateSet& rate_set : input_space.sources()) {
    if (rate_set.source < 0 ||
        static_cast<size_t>(rate_set.source) >= graph.num_components() ||
        !graph.IsSource(rate_set.source)) {
      return Status::InvalidArgument(
          StrFormat("rate set references component %d which is not a source",
                    rate_set.source));
    }
  }
  return Status::OK();
}

json::Value ApplicationDescriptor::ToJson() const {
  json::Value doc = json::Value::MakeObject();
  doc.Set("name", json::Value::String(name));

  json::Value components = json::Value::MakeArray();
  for (const Component& c : graph.components()) {
    json::Value jc = json::Value::MakeObject();
    jc.Set("id", json::Value::Int(c.id));
    jc.Set("kind", json::Value::String(ComponentKindName(c.kind)));
    jc.Set("name", json::Value::String(c.name));
    components.Append(std::move(jc));
  }
  doc.Set("components", std::move(components));

  json::Value edges = json::Value::MakeArray();
  for (const Edge& e : graph.edges()) {
    json::Value je = json::Value::MakeObject();
    je.Set("from", json::Value::Int(e.from));
    je.Set("to", json::Value::Int(e.to));
    je.Set("selectivity", json::Value::Number(e.selectivity));
    je.Set("cpu_cost_cycles", json::Value::Number(e.cpu_cost_cycles));
    edges.Append(std::move(je));
  }
  doc.Set("edges", std::move(edges));

  json::Value sources = json::Value::MakeArray();
  for (const SourceRateSet& s : input_space.sources()) {
    json::Value js = json::Value::MakeObject();
    js.Set("source", json::Value::Int(s.source));
    json::Value rates = json::Value::MakeArray();
    json::Value labels = json::Value::MakeArray();
    json::Value probabilities = json::Value::MakeArray();
    for (size_t i = 0; i < s.rates.size(); ++i) {
      rates.Append(json::Value::Number(s.rates[i]));
      labels.Append(json::Value::String(s.labels[i]));
      probabilities.Append(json::Value::Number(s.probabilities[i]));
    }
    js.Set("rates", std::move(rates));
    js.Set("labels", std::move(labels));
    js.Set("probabilities", std::move(probabilities));
    sources.Append(std::move(js));
  }
  doc.Set("source_rates", std::move(sources));
  return doc;
}

Result<ApplicationDescriptor> ApplicationDescriptor::FromJson(const json::Value& value) {
  if (!value.is_object()) return Status::InvalidArgument("descriptor must be a JSON object");
  ApplicationDescriptor out;
  out.name = value.GetOr("name", json::Value::String("")).string_value();

  LAAR_ASSIGN_OR_RETURN(const json::Value* components, value.Get("components"));
  if (!components->is_array()) return Status::InvalidArgument("'components' must be an array");
  for (const json::Value& jc : components->array()) {
    LAAR_ASSIGN_OR_RETURN(const json::Value* kind_value, jc.Get("kind"));
    LAAR_ASSIGN_OR_RETURN(std::string kind_name, kind_value->AsString());
    LAAR_ASSIGN_OR_RETURN(ComponentKind kind, KindFromString(kind_name));
    const std::string component_name =
        jc.GetOr("name", json::Value::String("")).string_value();
    ComponentId id = kInvalidComponent;
    switch (kind) {
      case ComponentKind::kSource:
        id = out.graph.AddSource(component_name);
        break;
      case ComponentKind::kPe:
        id = out.graph.AddPe(component_name);
        break;
      case ComponentKind::kSink:
        id = out.graph.AddSink(component_name);
        break;
    }
    // Ids must be dense and in file order so edges resolve unchanged.
    LAAR_ASSIGN_OR_RETURN(const json::Value* id_value, jc.Get("id"));
    LAAR_ASSIGN_OR_RETURN(int64_t declared_id, id_value->AsInt());
    if (declared_id != id) {
      return Status::InvalidArgument(
          StrFormat("component ids must be dense and ordered; got %lld at position %d",
                    static_cast<long long>(declared_id), id));
    }
  }

  LAAR_ASSIGN_OR_RETURN(const json::Value* edges, value.Get("edges"));
  if (!edges->is_array()) return Status::InvalidArgument("'edges' must be an array");
  for (const json::Value& je : edges->array()) {
    LAAR_ASSIGN_OR_RETURN(const json::Value* from_value, je.Get("from"));
    LAAR_ASSIGN_OR_RETURN(const json::Value* to_value, je.Get("to"));
    LAAR_ASSIGN_OR_RETURN(int64_t from, from_value->AsInt());
    LAAR_ASSIGN_OR_RETURN(int64_t to, to_value->AsInt());
    // An id past ComponentId's range must not wrap onto a real component.
    if (from != static_cast<ComponentId>(from) || to != static_cast<ComponentId>(to)) {
      return Status::InvalidArgument(StrFormat("edge (%lld, %lld) references unknown component",
                                               static_cast<long long>(from),
                                               static_cast<long long>(to)));
    }
    LAAR_ASSIGN_OR_RETURN(
        double selectivity,
        je.GetOr("selectivity", json::Value::Number(1.0)).AsDouble());
    LAAR_ASSIGN_OR_RETURN(
        double cpu_cost,
        je.GetOr("cpu_cost_cycles", json::Value::Number(0.0)).AsDouble());
    LAAR_RETURN_IF_ERROR(out.graph.AddEdge(static_cast<ComponentId>(from),
                                           static_cast<ComponentId>(to), selectivity,
                                           cpu_cost));
  }

  LAAR_ASSIGN_OR_RETURN(const json::Value* sources, value.Get("source_rates"));
  if (!sources->is_array()) return Status::InvalidArgument("'source_rates' must be an array");
  for (const json::Value& js : sources->array()) {
    SourceRateSet rate_set;
    LAAR_ASSIGN_OR_RETURN(const json::Value* source_value, js.Get("source"));
    LAAR_ASSIGN_OR_RETURN(int64_t source_id, source_value->AsInt());
    rate_set.source = static_cast<ComponentId>(source_id);
    if (rate_set.source != source_id) {
      return Status::InvalidArgument(
          StrFormat("unknown source %lld", static_cast<long long>(source_id)));
    }
    LAAR_ASSIGN_OR_RETURN(const json::Value* rates, js.Get("rates"));
    for (const json::Value& r : rates->array()) {
      LAAR_ASSIGN_OR_RETURN(double rate, r.AsDouble());
      rate_set.rates.push_back(rate);
    }
    if (js.Has("labels")) {
      LAAR_ASSIGN_OR_RETURN(const json::Value* labels, js.Get("labels"));
      for (const json::Value& l : labels->array()) {
        LAAR_ASSIGN_OR_RETURN(std::string label, l.AsString());
        rate_set.labels.push_back(std::move(label));
      }
    }
    LAAR_ASSIGN_OR_RETURN(const json::Value* probabilities, js.Get("probabilities"));
    for (const json::Value& p : probabilities->array()) {
      LAAR_ASSIGN_OR_RETURN(double probability, p.AsDouble());
      rate_set.probabilities.push_back(probability);
    }
    LAAR_RETURN_IF_ERROR(out.input_space.AddSource(rate_set));
  }

  LAAR_RETURN_IF_ERROR(out.Validate());
  return out;
}

Status ApplicationDescriptor::SaveToFile(const std::string& path) const {
  return json::WriteFile(ToJson(), path);
}

Result<ApplicationDescriptor> ApplicationDescriptor::LoadFromFile(const std::string& path) {
  LAAR_ASSIGN_OR_RETURN(json::Value doc, json::ParseFile(path));
  return FromJson(doc);
}

}  // namespace laar::model
