#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "laar/metrics/cost.h"
#include "laar/model/rates.h"
#include "laar/strategy/activation_strategy.h"
#include "laar/strategy/baselines.h"

namespace laar::strategy {
namespace {

using model::ApplicationGraph;
using model::Cluster;
using model::ComponentId;
using model::ConfigId;
using model::ExpectedRates;
using model::InputSpace;
using model::ReplicaPlacement;
using model::SourceRateSet;

struct Fixture {
  ApplicationGraph graph;
  InputSpace space;
  ComponentId source, pe0, pe1, sink;
};

Fixture MakePipeline(double cost0 = 1e8, double cost1 = 1e8) {
  Fixture f;
  f.source = f.graph.AddSource("s");
  f.pe0 = f.graph.AddPe("p0");
  f.pe1 = f.graph.AddPe("p1");
  f.sink = f.graph.AddSink("k");
  EXPECT_TRUE(f.graph.AddEdge(f.source, f.pe0, 1.0, cost0).ok());
  EXPECT_TRUE(f.graph.AddEdge(f.pe0, f.pe1, 1.0, cost1).ok());
  EXPECT_TRUE(f.graph.AddEdge(f.pe1, f.sink, 1.0, 0.0).ok());
  EXPECT_TRUE(f.graph.Validate().ok());
  SourceRateSet rates;
  rates.source = f.source;
  rates.rates = {4.0, 8.0};
  rates.labels = {"Low", "High"};
  rates.probabilities = {0.8, 0.2};
  EXPECT_TRUE(f.space.AddSource(rates).ok());
  return f;
}

ReplicaPlacement MakePairedPlacement(const Fixture& f) {
  // Fig. 2a: host0 = {p0 r0, p1 r0}, host1 = {p0 r1, p1 r1}.
  ReplicaPlacement p(f.graph.num_components(), 2);
  EXPECT_TRUE(p.Assign(f.pe0, 0, 0).ok());
  EXPECT_TRUE(p.Assign(f.pe0, 1, 1).ok());
  EXPECT_TRUE(p.Assign(f.pe1, 0, 0).ok());
  EXPECT_TRUE(p.Assign(f.pe1, 1, 1).ok());
  return p;
}

TEST(ActivationStrategyTest, DefaultsToAllActive) {
  ActivationStrategy s(4, 2, 3);
  for (ConfigId c = 0; c < 3; ++c) {
    for (ComponentId pe = 0; pe < 4; ++pe) {
      EXPECT_TRUE(s.IsActive(pe, 0, c));
      EXPECT_TRUE(s.IsActive(pe, 1, c));
      EXPECT_EQ(s.ActiveReplicaCount(pe, c), 2);
      EXPECT_TRUE(s.AllReplicasActive(pe, c));
    }
  }
}

TEST(ActivationStrategyTest, SetAndQuery) {
  ActivationStrategy s(3, 2, 2);
  s.SetActive(1, 0, 1, false);
  EXPECT_FALSE(s.IsActive(1, 0, 1));
  EXPECT_TRUE(s.IsActive(1, 1, 1));
  EXPECT_TRUE(s.IsActive(1, 0, 0));
  EXPECT_EQ(s.ActiveReplicaCount(1, 1), 1);
  EXPECT_FALSE(s.AllReplicasActive(1, 1));
  EXPECT_EQ(s.FirstActiveReplica(1, 1), 1);
  s.SetAll(1, 1, false);
  EXPECT_EQ(s.FirstActiveReplica(1, 1), -1);
  s.SetAll(1, 1, true);
  EXPECT_EQ(s.ActiveReplicaCount(1, 1), 2);
}

TEST(ActivationStrategyTest, CoverageCheck) {
  Fixture f = MakePipeline();
  ActivationStrategy s(f.graph.num_components(), 2, f.space.num_configs());
  EXPECT_TRUE(s.CheckCoverage(f.graph).ok());
  s.SetAll(f.pe1, 1, false);
  EXPECT_FALSE(s.CheckCoverage(f.graph).ok());
}

TEST(ActivationStrategyTest, JsonRoundTrip) {
  ActivationStrategy s(3, 2, 2);
  s.SetActive(0, 1, 0, false);
  s.SetActive(2, 0, 1, false);
  s.SetAll(1, 1, false);
  Result<ActivationStrategy> loaded = ActivationStrategy::FromJson(s.ToJson());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == s);
}

TEST(ActivationStrategyTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/laar_strategy_test.json";
  ActivationStrategy s(2, 2, 2);
  s.SetActive(1, 1, 0, false);
  ASSERT_TRUE(s.SaveToFile(path).ok());
  Result<ActivationStrategy> loaded = ActivationStrategy::LoadFromFile(path, 2, 2, 2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == s);
  // A file for another shape is rejected, naming both.
  Result<ActivationStrategy> other = ActivationStrategy::LoadFromFile(path, 3, 2, 2);
  ASSERT_FALSE(other.ok());
  EXPECT_NE(other.status().message().find(
                "declares num_components=2 replication_factor=2 num_configs=2, but the app "
                "and deployment have num_components=3 replication_factor=2 num_configs=2"),
            std::string::npos)
      << other.status().ToString();
  std::remove(path.c_str());
}

TEST(ActivationStrategyTest, FromJsonRejectsCorruptDocuments) {
  ActivationStrategy s(2, 2, 2);
  auto doc = s.ToJson();
  doc.Set("replication_factor", json::Value::Int(0));
  EXPECT_FALSE(ActivationStrategy::FromJson(doc).ok());

  auto doc2 = s.ToJson();
  doc2.object()["configs"].array()[0].Set("config", json::Value::Int(9));
  EXPECT_FALSE(ActivationStrategy::FromJson(doc2).ok());

  auto doc3 = s.ToJson();
  json::Value bad_pair = json::Value::MakeArray();
  bad_pair.Append(json::Value::Int(7));
  bad_pair.Append(json::Value::Int(0));
  doc3.object()["configs"].array()[0].object()["active"].Append(std::move(bad_pair));
  EXPECT_FALSE(ActivationStrategy::FromJson(doc3).ok());

  // 2^32 + 2 configurations would wrap to a table sized for 2, and config 3
  // would write past it.
  auto doc4 = s.ToJson();
  doc4.Set("num_configs", json::Value::Int((int64_t{1} << 32) + 2));
  doc4.object()["configs"].array()[0].Set("config", json::Value::Int(3));
  EXPECT_FALSE(ActivationStrategy::FromJson(doc4).ok());
}

TEST(BaselinesTest, StaticReplicationActivatesEverything) {
  Fixture f = MakePipeline();
  ActivationStrategy sr = MakeStaticReplication(f.graph, f.space, 2);
  for (ConfigId c = 0; c < f.space.num_configs(); ++c) {
    EXPECT_TRUE(sr.AllReplicasActive(f.pe0, c));
    EXPECT_TRUE(sr.AllReplicasActive(f.pe1, c));
  }
}

TEST(BaselinesTest, NonReplicatedKeepsExactlyOneEverywhere) {
  Fixture f = MakePipeline();
  // Reference strategy: in High, p0 keeps only replica 1; p1 keeps both.
  ActivationStrategy reference(f.graph.num_components(), 2, f.space.num_configs());
  reference.SetActive(f.pe0, 0, 1, false);
  ActivationStrategy nr = MakeNonReplicated(f.graph, f.space, reference, 1);
  for (ConfigId c = 0; c < f.space.num_configs(); ++c) {
    EXPECT_EQ(nr.ActiveReplicaCount(f.pe0, c), 1);
    EXPECT_EQ(nr.ActiveReplicaCount(f.pe1, c), 1);
  }
  // p0's survivor is the replica that was active in High (replica 1).
  EXPECT_TRUE(nr.IsActive(f.pe0, 1, 0));
  EXPECT_FALSE(nr.IsActive(f.pe0, 0, 0));
  // p1 had both active in High; the first active replica (0) is kept.
  EXPECT_TRUE(nr.IsActive(f.pe1, 0, 0));
  EXPECT_TRUE(nr.CheckCoverage(f.graph).ok());
}

TEST(BaselinesTest, GreedyDeactivatesUntilNotOverloaded) {
  // 100 ms/tuple pipeline on two 1e9-cycle hosts: all-active is fine at
  // Low (0.8e9 per host) and overloaded at High (1.6e9 per host).
  Fixture f = MakePipeline();
  Cluster cluster = Cluster::Homogeneous(2, 1e9);
  ReplicaPlacement placement = MakePairedPlacement(f);
  auto rates = ExpectedRates::Compute(f.graph, f.space);
  ASSERT_TRUE(rates.ok());
  ActivationStrategy grd = MakeGreedy(f.graph, f.space, *rates, placement, cluster);

  EXPECT_TRUE(grd.CheckCoverage(f.graph).ok());
  // Low stays fully replicated; High cannot be.
  EXPECT_TRUE(grd.AllReplicasActive(f.pe0, 0));
  EXPECT_TRUE(grd.AllReplicasActive(f.pe1, 0));
  EXPECT_FALSE(metrics::IsOverloaded(f.graph, *rates, placement, grd, cluster, 0));
  EXPECT_FALSE(metrics::IsOverloaded(f.graph, *rates, placement, grd, cluster, 1));
  EXPECT_LT(grd.ActiveReplicaCount(f.pe0, 1) + grd.ActiveReplicaCount(f.pe1, 1), 4);
}

TEST(BaselinesTest, GreedyKeepsCoverageEvenWhenStuck) {
  // A single PE whose one-replica load already exceeds capacity: greedy
  // cannot fix the overload but must keep one replica active (Eq. 12).
  Fixture f = MakePipeline(/*cost0=*/1e9, /*cost1=*/1e5);
  Cluster cluster = Cluster::Homogeneous(2, 1e9);
  ReplicaPlacement placement = MakePairedPlacement(f);
  auto rates = ExpectedRates::Compute(f.graph, f.space);
  ASSERT_TRUE(rates.ok());
  ActivationStrategy grd = MakeGreedy(f.graph, f.space, *rates, placement, cluster);
  EXPECT_TRUE(grd.CheckCoverage(f.graph).ok());
}

}  // namespace
}  // namespace laar::strategy
