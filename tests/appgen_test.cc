#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/metrics/cost.h"
#include "laar/strategy/activation_strategy.h"

namespace laar::appgen {
namespace {

using model::ConfigId;
using model::ExpectedRates;

TEST(AppGeneratorTest, DeterministicBySeed) {
  GeneratorOptions options;
  options.num_pes = 12;
  options.num_hosts = 6;
  Result<GeneratedApplication> a = GenerateApplication(options, 42);
  Result<GeneratedApplication> b = GenerateApplication(options, 42);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->descriptor.ToJson().Dump(), b->descriptor.ToJson().Dump());

  Result<GeneratedApplication> c = GenerateApplication(options, 43);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->descriptor.ToJson().Dump(), c->descriptor.ToJson().Dump());
}

TEST(AppGeneratorTest, StructureMatchesOptions) {
  GeneratorOptions options;
  options.num_pes = 16;
  options.num_sources = 2;
  options.num_sinks = 2;
  options.num_hosts = 8;
  Result<GeneratedApplication> app = GenerateApplication(options, 7);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  const model::ApplicationGraph& graph = app->descriptor.graph;
  EXPECT_EQ(graph.num_pes(), 16u);
  EXPECT_EQ(graph.Sources().size(), 2u);
  EXPECT_EQ(graph.Sinks().size(), 2u);
  EXPECT_TRUE(graph.validated());
  EXPECT_EQ(app->cluster.num_hosts(), 8u);
  EXPECT_TRUE(app->placement.Validate(app->cluster).ok());
  EXPECT_EQ(app->descriptor.input_space.num_configs(), 4);
}

TEST(AppGeneratorTest, SelectivitiesWithinConfiguredRange) {
  GeneratorOptions options;
  options.num_pes = 20;
  options.num_hosts = 10;
  Result<GeneratedApplication> app = GenerateApplication(options, 11);
  ASSERT_TRUE(app.ok());
  for (const model::Edge& e : app->descriptor.graph.edges()) {
    if (!app->descriptor.graph.IsPe(e.to)) continue;
    EXPECT_GE(e.selectivity, options.selectivity_min);
    EXPECT_LE(e.selectivity, options.selectivity_max);
    EXPECT_GT(e.cpu_cost_cycles, 0.0);
  }
}

TEST(AppGeneratorTest, RatesWithinRangeAndOrdered) {
  GeneratorOptions options;
  options.num_pes = 8;
  options.num_hosts = 4;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Result<GeneratedApplication> app = GenerateApplication(options, seed);
    ASSERT_TRUE(app.ok());
    for (const model::SourceRateSet& s : app->descriptor.input_space.sources()) {
      ASSERT_EQ(s.rates.size(), 2u);
      EXPECT_GE(s.rates[0], options.rate_min);
      EXPECT_LE(s.rates[1], options.rate_max);
      EXPECT_LT(s.rates[0], s.rates[1]);
      EXPECT_EQ(s.labels[0], "Low");
      EXPECT_NEAR(s.probabilities[0], options.low_probability, 1e-12);
    }
  }
}

TEST(AppGeneratorTest, CalibrationConditionsHold) {
  // §5.2: not overloaded at Low with all replicas active; overloaded at
  // High.
  GeneratorOptions options;
  options.num_pes = 24;
  options.num_hosts = 12;
  for (uint64_t seed : {5u, 6u, 7u, 8u}) {
    Result<GeneratedApplication> app = GenerateApplication(options, seed);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    auto rates = ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
    ASSERT_TRUE(rates.ok());
    const strategy::ActivationStrategy all_active(
        app->descriptor.graph.num_components(), 2,
        app->descriptor.input_space.num_configs());
    const ConfigId low = 0;
    const ConfigId high = app->descriptor.input_space.PeakConfig();
    EXPECT_FALSE(metrics::IsOverloaded(app->descriptor.graph, *rates, app->placement,
                                       all_active, app->cluster, low))
        << "seed=" << seed;
    EXPECT_TRUE(metrics::IsOverloaded(app->descriptor.graph, *rates, app->placement,
                                      all_active, app->cluster, high))
        << "seed=" << seed;

    // The Low-side load stays within the condition-i bound.
    const std::vector<double> loads = metrics::HostLoads(
        app->descriptor.graph, *rates, app->placement, all_active, app->cluster, low);
    const double max_load = *std::max_element(loads.begin(), loads.end());
    EXPECT_LE(max_load, options.low_load_max * options.host_capacity * (1.0 + 1e-9));
    EXPECT_GT(max_load, 0.0);

    // The High-side all-active peak load sits within the overload anchor
    // range, which also leaves a single-replica deployment feasible.
    const std::vector<double> high_loads = metrics::HostLoads(
        app->descriptor.graph, *rates, app->placement, all_active, app->cluster, high);
    const double max_high = *std::max_element(high_loads.begin(), high_loads.end());
    EXPECT_GE(max_high, options.high_overload_min * options.host_capacity * (1.0 - 1e-9));
    EXPECT_LE(max_high, options.high_overload_max * options.host_capacity * (1.0 + 1e-9));
  }
}

TEST(AppGeneratorTest, RejectsBadOptions) {
  GeneratorOptions options;
  options.num_pes = 0;
  EXPECT_FALSE(GenerateApplication(options, 1).ok());

  options = GeneratorOptions{};
  options.num_hosts = 1;  // < replication factor
  EXPECT_FALSE(GenerateApplication(options, 1).ok());

  options = GeneratorOptions{};
  options.low_load_max = 1.5;
  EXPECT_FALSE(GenerateApplication(options, 1).ok());

  options = GeneratorOptions{};
  options.high_overload_min = 0.9;
  EXPECT_FALSE(GenerateApplication(options, 1).ok());

  options = GeneratorOptions{};
  options.high_overload_max = 1.05;  // below the min
  EXPECT_FALSE(GenerateApplication(options, 1).ok());

  options = GeneratorOptions{};
  options.rate_min = -1.0;
  EXPECT_FALSE(GenerateApplication(options, 1).ok());
}

TEST(AppGeneratorTest, DescriptorRoundTripsThroughJson) {
  GeneratorOptions options;
  options.num_pes = 10;
  options.num_hosts = 5;
  Result<GeneratedApplication> app = GenerateApplication(options, 21);
  ASSERT_TRUE(app.ok());
  auto loaded = model::ApplicationDescriptor::FromJson(app->descriptor.ToJson());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ToJson().Dump(), app->descriptor.ToJson().Dump());
}

TEST(AppGeneratorTest, EveryPeReachableAndDraining) {
  GeneratorOptions options;
  options.num_pes = 24;
  options.num_hosts = 12;
  Result<GeneratedApplication> app = GenerateApplication(options, 31);
  ASSERT_TRUE(app.ok());
  const model::ApplicationGraph& graph = app->descriptor.graph;
  for (model::ComponentId pe : graph.Pes()) {
    EXPECT_FALSE(graph.IncomingEdges(pe).empty());
    EXPECT_FALSE(graph.OutgoingEdges(pe).empty());
  }
}

// Few PEs per source used to leave a source without a successor, and
// generation failed outright ("source N has no successors").
TEST(AppGeneratorTest, EverySourceFeedsAPe) {
  GeneratorOptions web_scale = WebScaleProfile();
  web_scale.num_pes = 64;
  web_scale.num_hosts = 16;
  GeneratorOptions two_sources;
  two_sources.num_sources = 2;
  two_sources.num_pes = 10;
  two_sources.num_hosts = 4;
  const std::pair<GeneratorOptions, uint64_t> cases[] = {
      {web_scale, 1}, {web_scale, 2}, {web_scale, 3}, {web_scale, 5}, {two_sources, 5}};
  for (const auto& [options, seed] : cases) {
    Result<GeneratedApplication> app = GenerateApplication(options, seed);
    ASSERT_TRUE(app.ok()) << "seed " << seed << ": " << app.status().ToString();
    const model::ApplicationGraph& graph = app->descriptor.graph;
    EXPECT_EQ(graph.Sources().size(), static_cast<size_t>(options.num_sources));
    for (model::ComponentId source : graph.Sources()) {
      EXPECT_FALSE(graph.OutgoingEdges(source).empty()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace laar::appgen
