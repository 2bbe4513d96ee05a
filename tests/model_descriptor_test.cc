#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "laar/model/descriptor.h"

namespace laar::model {
namespace {

ApplicationDescriptor MakeApp() {
  ApplicationDescriptor app;
  app.name = "demo";
  const ComponentId source = app.graph.AddSource("src");
  const ComponentId pe0 = app.graph.AddPe("stage0");
  const ComponentId pe1 = app.graph.AddPe("stage1");
  const ComponentId sink = app.graph.AddSink("out");
  EXPECT_TRUE(app.graph.AddEdge(source, pe0, 1.0, 1e7).ok());
  EXPECT_TRUE(app.graph.AddEdge(pe0, pe1, 0.75, 2e7).ok());
  EXPECT_TRUE(app.graph.AddEdge(pe0, sink, 1.0, 0.0).ok());
  EXPECT_TRUE(app.graph.AddEdge(pe1, sink, 1.0, 0.0).ok());
  SourceRateSet rates;
  rates.source = source;
  rates.rates = {5.0, 15.0};
  rates.labels = {"Low", "High"};
  rates.probabilities = {2.0 / 3.0, 1.0 / 3.0};
  EXPECT_TRUE(app.input_space.AddSource(rates).ok());
  EXPECT_TRUE(app.Validate().ok());
  return app;
}

TEST(DescriptorTest, ValidateChecksAgreement) {
  ApplicationDescriptor app = MakeApp();
  EXPECT_TRUE(app.Validate().ok());

  // A rate set pointing at a PE is rejected.
  ApplicationDescriptor bad = MakeApp();
  SourceRateSet extra;
  extra.source = 1;  // a PE
  extra.rates = {1.0};
  extra.probabilities = {1.0};
  ASSERT_TRUE(bad.input_space.AddSource(extra).ok());
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(DescriptorTest, ValidateRejectsSourceWithoutRates) {
  ApplicationDescriptor app;
  const ComponentId s0 = app.graph.AddSource("s0");
  const ComponentId s1 = app.graph.AddSource("s1");
  const ComponentId pe = app.graph.AddPe("p");
  const ComponentId sink = app.graph.AddSink("k");
  ASSERT_TRUE(app.graph.AddEdge(s0, pe, 1, 1).ok());
  ASSERT_TRUE(app.graph.AddEdge(s1, pe, 1, 1).ok());
  ASSERT_TRUE(app.graph.AddEdge(pe, sink, 1, 0).ok());
  SourceRateSet rates;
  rates.source = s0;
  rates.rates = {1.0};
  rates.probabilities = {1.0};
  ASSERT_TRUE(app.input_space.AddSource(rates).ok());
  EXPECT_FALSE(app.Validate().ok());
}

TEST(DescriptorTest, JsonRoundTripPreservesEverything) {
  ApplicationDescriptor app = MakeApp();
  json::Value doc = app.ToJson();
  Result<ApplicationDescriptor> loaded = ApplicationDescriptor::FromJson(doc);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->name, "demo");
  EXPECT_EQ(loaded->graph.num_components(), app.graph.num_components());
  EXPECT_EQ(loaded->graph.num_edges(), app.graph.num_edges());
  for (size_t i = 0; i < app.graph.num_edges(); ++i) {
    const Edge& a = app.graph.edges()[i];
    const Edge& b = loaded->graph.edges()[i];
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_DOUBLE_EQ(a.selectivity, b.selectivity);
    EXPECT_DOUBLE_EQ(a.cpu_cost_cycles, b.cpu_cost_cycles);
  }
  EXPECT_EQ(loaded->input_space.num_configs(), 2);
  EXPECT_DOUBLE_EQ(loaded->input_space.RateOf(0, 1), 15.0);
  EXPECT_EQ(loaded->input_space.source_rates(0).labels[1], "High");
  EXPECT_NEAR(loaded->input_space.Probability(0), 2.0 / 3.0, 1e-12);
}

TEST(DescriptorTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/laar_descriptor_test.json";
  ApplicationDescriptor app = MakeApp();
  ASSERT_TRUE(app.SaveToFile(path).ok());
  Result<ApplicationDescriptor> loaded = ApplicationDescriptor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ToJson().Dump(), app.ToJson().Dump());
  std::remove(path.c_str());
}

TEST(DescriptorTest, FromJsonRejectsBadDocuments) {
  EXPECT_FALSE(ApplicationDescriptor::FromJson(json::Value::Int(3)).ok());

  // Missing sections.
  json::Value empty = json::Value::MakeObject();
  EXPECT_FALSE(ApplicationDescriptor::FromJson(empty).ok());

  // Non-dense component ids.
  auto doc = MakeApp().ToJson();
  doc.object()["components"].array()[0].Set("id", json::Value::Int(5));
  EXPECT_FALSE(ApplicationDescriptor::FromJson(doc).ok());

  // Unknown component kind.
  auto doc2 = MakeApp().ToJson();
  doc2.object()["components"].array()[0].Set("kind", json::Value::String("widget"));
  EXPECT_FALSE(ApplicationDescriptor::FromJson(doc2).ok());

  // Edge referencing a missing component.
  auto doc3 = MakeApp().ToJson();
  doc3.object()["edges"].array()[0].Set("to", json::Value::Int(99));
  EXPECT_FALSE(ApplicationDescriptor::FromJson(doc3).ok());

  // Ids 2^32 past a real component do not wrap onto it.
  constexpr int64_t kWrap = int64_t{1} << 32;
  auto doc4 = MakeApp().ToJson();
  doc4.object()["edges"].array()[0].Set("from", json::Value::Int(kWrap));
  EXPECT_FALSE(ApplicationDescriptor::FromJson(doc4).ok());
  auto doc5 = MakeApp().ToJson();
  doc5.object()["source_rates"].array()[0].Set("source", json::Value::Int(kWrap));
  EXPECT_FALSE(ApplicationDescriptor::FromJson(doc5).ok());
}

}  // namespace
}  // namespace laar::model
