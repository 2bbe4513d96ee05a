#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "laar/model/graph.h"

namespace laar::model {
namespace {

ApplicationGraph MakePipeline() {
  // source -> pe0 -> pe1 -> sink
  ApplicationGraph g;
  const ComponentId source = g.AddSource("src");
  const ComponentId pe0 = g.AddPe("pe0");
  const ComponentId pe1 = g.AddPe("pe1");
  const ComponentId sink = g.AddSink("sink");
  EXPECT_TRUE(g.AddEdge(source, pe0, 1.0, 10.0).ok());
  EXPECT_TRUE(g.AddEdge(pe0, pe1, 0.5, 20.0).ok());
  EXPECT_TRUE(g.AddEdge(pe1, sink, 1.0, 0.0).ok());
  return g;
}

TEST(GraphTest, BuildAndValidatePipeline) {
  ApplicationGraph g = MakePipeline();
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_TRUE(g.validated());
  EXPECT_EQ(g.num_components(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_pes(), 2u);
  EXPECT_EQ(g.num_sources(), 1u);
  EXPECT_EQ(g.Sources().size(), 1u);
  EXPECT_EQ(g.Sinks().size(), 1u);
}

TEST(GraphTest, KindPredicates) {
  ApplicationGraph g = MakePipeline();
  EXPECT_TRUE(g.IsSource(0));
  EXPECT_TRUE(g.IsPe(1));
  EXPECT_TRUE(g.IsPe(2));
  EXPECT_TRUE(g.IsSink(3));
}

TEST(GraphTest, PredecessorsAndSuccessors) {
  ApplicationGraph g = MakePipeline();
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.Predecessors(1), (std::vector<ComponentId>{0}));
  EXPECT_EQ(g.Successors(1), (std::vector<ComponentId>{2}));
  EXPECT_TRUE(g.Predecessors(0).empty());
  EXPECT_TRUE(g.Successors(3).empty());
}

TEST(GraphTest, TopologicalOrderRespectsEdges) {
  ApplicationGraph g;
  const ComponentId src = g.AddSource("s");
  const ComponentId a = g.AddPe("a");
  const ComponentId b = g.AddPe("b");
  const ComponentId c = g.AddPe("c");
  const ComponentId sink = g.AddSink("k");
  // Diamond: src -> a -> {b, c} -> sink, plus b -> c.
  ASSERT_TRUE(g.AddEdge(src, a, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(a, b, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(a, c, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(b, c, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(c, sink, 1, 0).ok());
  ASSERT_TRUE(g.AddEdge(b, sink, 1, 0).ok());
  ASSERT_TRUE(g.Validate().ok());

  std::vector<size_t> position(g.num_components());
  const auto& order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), g.num_components());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(position[e.from], position[e.to]);
  }
  EXPECT_EQ(g.PesInTopologicalOrder(), (std::vector<ComponentId>{a, b, c}));
}

TEST(GraphTest, RejectsUnknownEndpoint) {
  ApplicationGraph g;
  g.AddSource("s");
  EXPECT_FALSE(g.AddEdge(0, 5, 1.0, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(-1, 0, 1.0, 1.0).ok());
}

TEST(GraphTest, RejectsSelfLoop) {
  ApplicationGraph g;
  g.AddSource("s");
  const ComponentId pe = g.AddPe("p");
  EXPECT_FALSE(g.AddEdge(pe, pe, 1.0, 1.0).ok());
}

TEST(GraphTest, RejectsNonPositiveSelectivityIntoPe) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  EXPECT_FALSE(g.AddEdge(s, p, 0.0, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(s, p, -1.0, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(s, p, 1.0, -5.0).ok());
}

TEST(GraphTest, RejectsNonFiniteEdgeAttributes) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  const ComponentId k = g.AddSink("k");
  const double inf = std::numeric_limits<double>::infinity();
  const Status status = g.AddEdge(s, p, inf, 1.0);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("selectivity inf"), std::string::npos) << status.ToString();
  EXPECT_FALSE(g.AddEdge(s, p, 1.0, inf).ok());
  EXPECT_FALSE(g.AddEdge(s, p, std::numeric_limits<double>::quiet_NaN(), 1.0).ok());
  // A sink's edge too: the descriptor could not be written out and read back.
  EXPECT_FALSE(g.AddEdge(p, k, inf, 0.0).ok());
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, ValidateRejectsDuplicateEdge) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  const ComponentId k = g.AddSink("k");
  ASSERT_TRUE(g.AddEdge(s, p, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(s, p, 0.5, 2).ok());  // duplicate, caught at Validate
  ASSERT_TRUE(g.AddEdge(p, k, 1, 0).ok());
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, ValidateRejectsEdgeIntoSource) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  ASSERT_TRUE(g.AddEdge(s, p, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(p, s, 1, 1).ok());
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, ValidateRejectsEdgeOutOfSink) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  const ComponentId k = g.AddSink("k");
  ASSERT_TRUE(g.AddEdge(s, p, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(p, k, 1, 0).ok());
  ASSERT_TRUE(g.AddEdge(k, p, 1, 1).ok());
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, ValidateRejectsOrphanPe) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  g.AddPe("orphan");
  const ComponentId k = g.AddSink("k");
  ASSERT_TRUE(g.AddEdge(s, p, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(p, k, 1, 0).ok());
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, ValidateRejectsSourceWithoutSuccessors) {
  ApplicationGraph g;
  g.AddSource("dangling");
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  const ComponentId k = g.AddSink("k");
  ASSERT_TRUE(g.AddEdge(s, p, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(p, k, 1, 0).ok());
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, ValidateRejectsCycle) {
  // Cycles between PEs: a -> b -> a. (Self-loops are rejected earlier.)
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId a = g.AddPe("a");
  const ComponentId b = g.AddPe("b");
  const ComponentId k = g.AddSink("k");
  ASSERT_TRUE(g.AddEdge(s, a, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(a, b, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(b, a, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(b, k, 1, 0).ok());
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, SinkEdgeAttributesNotConstrained) {
  ApplicationGraph g;
  const ComponentId s = g.AddSource("s");
  const ComponentId p = g.AddPe("p");
  const ComponentId k = g.AddSink("k");
  ASSERT_TRUE(g.AddEdge(s, p, 1, 1).ok());
  // Edges into sinks skip the sign checks; only finiteness applies.
  EXPECT_TRUE(g.AddEdge(p, k, -3.0, -1.0).ok());
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphTest, ComponentKindNames) {
  EXPECT_STREQ(ComponentKindName(ComponentKind::kSource), "source");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kPe), "pe");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kSink), "sink");
}

}  // namespace
}  // namespace laar::model
