#include "laar/model/graph.h"

#include <cmath>
#include <deque>
#include <set>
#include <utility>

#include "laar/common/strings.h"

namespace laar::model {

const char* ComponentKindName(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kSource:
      return "source";
    case ComponentKind::kPe:
      return "pe";
    case ComponentKind::kSink:
      return "sink";
  }
  return "unknown";
}

ComponentId ApplicationGraph::AddComponent(ComponentKind kind, std::string name) {
  const ComponentId id = static_cast<ComponentId>(components_.size());
  components_.push_back(Component{id, kind, std::move(name)});
  incoming_.emplace_back();
  outgoing_.emplace_back();
  validated_ = false;
  return id;
}

ComponentId ApplicationGraph::AddSource(std::string name) {
  return AddComponent(ComponentKind::kSource, std::move(name));
}

ComponentId ApplicationGraph::AddPe(std::string name) {
  return AddComponent(ComponentKind::kPe, std::move(name));
}

ComponentId ApplicationGraph::AddSink(std::string name) {
  return AddComponent(ComponentKind::kSink, std::move(name));
}

Status ApplicationGraph::AddEdge(ComponentId from, ComponentId to, double selectivity,
                                 double cpu_cost_cycles) {
  const auto n = static_cast<ComponentId>(components_.size());
  if (from < 0 || from >= n || to < 0 || to >= n) {
    return Status::InvalidArgument(StrFormat("edge (%d, %d) references unknown component",
                                             from, to));
  }
  if (from == to) return Status::InvalidArgument("self-loop edges are not allowed");
  // Every edge, a sink's too: a descriptor holding ∞ or NaN could not be
  // written out as JSON and read back.
  if (!std::isfinite(selectivity) || !std::isfinite(cpu_cost_cycles)) {
    return Status::InvalidArgument(
        StrFormat("edge (%d, %d): selectivity %g and per-tuple CPU cost %g must be finite",
                  from, to, selectivity, cpu_cost_cycles));
  }
  if (IsPe(to)) {
    if (selectivity <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("edge (%d, %d): selectivity must be positive, got %g", from, to,
                    selectivity));
    }
    if (cpu_cost_cycles < 0.0) {
      return Status::InvalidArgument(
          StrFormat("edge (%d, %d): per-tuple CPU cost must be non-negative, got %g", from,
                    to, cpu_cost_cycles));
    }
  }
  const size_t edge_index = edges_.size();
  edges_.push_back(Edge{from, to, selectivity, cpu_cost_cycles});
  outgoing_[from].push_back(edge_index);
  incoming_[to].push_back(edge_index);
  validated_ = false;
  return Status::OK();
}

Status ApplicationGraph::Validate() {
  // Structural checks per component kind.
  std::set<std::pair<ComponentId, ComponentId>> seen_edges;
  for (const Edge& e : edges_) {
    if (!seen_edges.insert({e.from, e.to}).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate edge (%d, %d); multi-edges are not supported", e.from, e.to));
    }
    if (IsSink(e.from)) {
      return Status::InvalidArgument(StrFormat("sink %d has an outgoing edge", e.from));
    }
    if (IsSource(e.to)) {
      return Status::InvalidArgument(StrFormat("source %d has an incoming edge", e.to));
    }
  }
  for (const Component& c : components_) {
    if (c.kind == ComponentKind::kPe && incoming_[c.id].empty()) {
      return Status::InvalidArgument(
          StrFormat("PE %d ('%s') has no predecessors and would never receive tuples", c.id,
                    c.name.c_str()));
    }
    if (c.kind == ComponentKind::kSource && outgoing_[c.id].empty()) {
      return Status::InvalidArgument(
          StrFormat("source %d ('%s') has no successors", c.id, c.name.c_str()));
    }
  }

  // Kahn's algorithm [20]; also detects cycles.
  topo_order_.clear();
  topo_order_.reserve(components_.size());
  std::vector<size_t> in_degree(components_.size(), 0);
  for (const Edge& e : edges_) ++in_degree[e.to];
  std::deque<ComponentId> frontier;
  for (const Component& c : components_) {
    if (in_degree[c.id] == 0) frontier.push_back(c.id);
  }
  while (!frontier.empty()) {
    const ComponentId id = frontier.front();
    frontier.pop_front();
    topo_order_.push_back(id);
    for (size_t edge_index : outgoing_[id]) {
      const ComponentId next = edges_[edge_index].to;
      if (--in_degree[next] == 0) frontier.push_back(next);
    }
  }
  if (topo_order_.size() != components_.size()) {
    return Status::InvalidArgument("application graph contains a cycle");
  }
  validated_ = true;
  return Status::OK();
}

std::vector<ComponentId> ApplicationGraph::Sources() const {
  std::vector<ComponentId> out;
  for (const Component& c : components_) {
    if (c.kind == ComponentKind::kSource) out.push_back(c.id);
  }
  return out;
}

std::vector<ComponentId> ApplicationGraph::Pes() const {
  std::vector<ComponentId> out;
  for (const Component& c : components_) {
    if (c.kind == ComponentKind::kPe) out.push_back(c.id);
  }
  return out;
}

std::vector<ComponentId> ApplicationGraph::Sinks() const {
  std::vector<ComponentId> out;
  for (const Component& c : components_) {
    if (c.kind == ComponentKind::kSink) out.push_back(c.id);
  }
  return out;
}

size_t ApplicationGraph::num_pes() const {
  size_t count = 0;
  for (const Component& c : components_) {
    if (c.kind == ComponentKind::kPe) ++count;
  }
  return count;
}

size_t ApplicationGraph::num_sources() const {
  size_t count = 0;
  for (const Component& c : components_) {
    if (c.kind == ComponentKind::kSource) ++count;
  }
  return count;
}

std::vector<ComponentId> ApplicationGraph::Predecessors(ComponentId id) const {
  std::vector<ComponentId> out;
  out.reserve(incoming_[id].size());
  for (size_t edge_index : incoming_[id]) out.push_back(edges_[edge_index].from);
  return out;
}

std::vector<ComponentId> ApplicationGraph::Successors(ComponentId id) const {
  std::vector<ComponentId> out;
  out.reserve(outgoing_[id].size());
  for (size_t edge_index : outgoing_[id]) out.push_back(edges_[edge_index].to);
  return out;
}

std::vector<ComponentId> ApplicationGraph::PesInTopologicalOrder() const {
  std::vector<ComponentId> out;
  for (ComponentId id : topo_order_) {
    if (IsPe(id)) out.push_back(id);
  }
  return out;
}

}  // namespace laar::model
