#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "laar/model/rates.h"
#include "laar/spl/spl_parser.h"

namespace laar::spl {
namespace {

constexpr const char* kPipeline = R"(
# The Fig. 1 application.
application pipeline {
  source src { rate Low = 4 @ 0.8; rate High = 8 @ 0.2; }
  pe stage1;
  pe stage2;
  sink out;
  stream src -> stage1 [selectivity = 1.0, cost = 100ms];
  stream stage1 -> stage2 [cost = 100ms];   // default selectivity 1
  stream stage2 -> out;
}
)";

TEST(SplParserTest, ParsesThePipeline) {
  Result<model::ApplicationDescriptor> app = ParseApplication(kPipeline);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  EXPECT_EQ(app->name, "pipeline");
  EXPECT_EQ(app->graph.num_components(), 4u);
  EXPECT_EQ(app->graph.num_pes(), 2u);
  EXPECT_EQ(app->graph.num_edges(), 3u);
  ASSERT_EQ(app->input_space.num_configs(), 2);
  EXPECT_DOUBLE_EQ(app->input_space.RateOf(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(app->input_space.RateOf(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(app->input_space.Probability(0), 0.8);
  EXPECT_EQ(app->input_space.ConfigLabel(1), "High");
  // 100 ms at the 1 GHz reference = 1e8 cycles.
  EXPECT_DOUBLE_EQ(app->graph.edges()[0].cpu_cost_cycles, 1e8);
  EXPECT_DOUBLE_EQ(app->graph.edges()[1].selectivity, 1.0);
  EXPECT_DOUBLE_EQ(app->graph.edges()[2].cpu_cost_cycles, 0.0);
}

TEST(SplParserTest, ParsedAppSupportsRateAnalysis) {
  Result<model::ApplicationDescriptor> app = ParseApplication(kPipeline);
  ASSERT_TRUE(app.ok());
  auto rates = model::ExpectedRates::Compute(app->graph, app->input_space);
  ASSERT_TRUE(rates.ok());
  EXPECT_DOUBLE_EQ(rates->Rate(2, 1), 8.0);  // stage2 output at High
}

TEST(SplParserTest, CostUnits) {
  const char* text = R"(
application units {
  source s { rate only = 1 @ 1.0; }
  pe a; pe b; pe c; pe d;
  sink k;
  stream s -> a [cost = 5000cycles];
  stream a -> b [cost = 2ms];
  stream b -> c [cost = 3us];
  stream c -> d [cost = 42];
  stream d -> k;
}
)";
  Result<model::ApplicationDescriptor> app = ParseApplication(text);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  EXPECT_DOUBLE_EQ(app->graph.edges()[0].cpu_cost_cycles, 5000.0);
  EXPECT_DOUBLE_EQ(app->graph.edges()[1].cpu_cost_cycles, 2e6);
  EXPECT_DOUBLE_EQ(app->graph.edges()[2].cpu_cost_cycles, 3e3);
  EXPECT_DOUBLE_EQ(app->graph.edges()[3].cpu_cost_cycles, 42.0);

  // A unit glued to an exponent literal is the letters after the literal,
  // not every letter of the token ("1e3ms" is not unit "ems").
  const char* exponents = R"(
application exponents {
  source s { rate only = 1 @ 1.0; }
  pe a; pe b; pe c; pe d; pe e;
  sink k;
  stream s -> a [cost = 1e3ms];
  stream a -> b [cost = 1000ms];
  stream b -> c [cost = 2.5e-3s];
  stream c -> d [cost = 2.5ms];
  stream d -> e [cost = 2e6cycles];
  stream e -> k;
}
)";
  Result<model::ApplicationDescriptor> glued = ParseApplication(exponents);
  ASSERT_TRUE(glued.ok()) << glued.status().ToString();
  const auto& edges = glued->graph.edges();
  EXPECT_EQ(edges[0].cpu_cost_cycles, edges[1].cpu_cost_cycles);
  EXPECT_EQ(edges[2].cpu_cost_cycles, edges[3].cpu_cost_cycles);
  EXPECT_DOUBLE_EQ(edges[0].cpu_cost_cycles, 1e9);
  EXPECT_DOUBLE_EQ(edges[2].cpu_cost_cycles, 2.5e6);
  EXPECT_DOUBLE_EQ(edges[4].cpu_cost_cycles, 2e6);
}

TEST(SplParserTest, UnitsOnlyOnCost) {
  // Only `cost` reads a unit; one glued to a rate, a probability or a
  // selectivity is an error that names it, never silently dropped.
  struct Probe {
    const char* text;
    const char* unit;
  };
  const Probe probes[] = {
      {R"(application x {
  source s { rate only = 4hz @ 1.0; }
  pe a; sink k;
  stream s -> a [cost = 1ms];
  stream a -> k;
})",
       "'hz'"},
      {R"(application x {
  source s { rate only = 4 @ 1.0kg; }
  pe a; sink k;
  stream s -> a [cost = 1ms];
  stream a -> k;
})",
       "'kg'"},
      {R"(application x {
  source s { rate only = 4 @ 1.0; }
  pe a; sink k;
  stream s -> a [selectivity = 0.5ms, cost = 1ms];
  stream a -> k;
})",
       "'ms'"},
  };
  for (const Probe& probe : probes) {
    Result<model::ApplicationDescriptor> app = ParseApplication(probe.text);
    ASSERT_FALSE(app.ok()) << probe.text;
    EXPECT_NE(app.status().message().find(probe.unit), std::string::npos)
        << app.status().ToString();
    EXPECT_NE(app.status().message().find("takes no unit"), std::string::npos)
        << app.status().ToString();
  }
}

TEST(SplParserTest, MultiSourceFanIn) {
  const char* text = R"(
application fan {
  source a { rate lo = 1 @ 0.5; rate hi = 2 @ 0.5; }
  source b { rate lo = 3 @ 0.25; rate hi = 9 @ 0.75; }
  pe join;
  sink out;
  stream a -> join [selectivity = 0.5, cost = 1ms];
  stream b -> join [selectivity = 1.5, cost = 1ms];
  stream join -> out;
}
)";
  Result<model::ApplicationDescriptor> app = ParseApplication(text);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  EXPECT_EQ(app->input_space.num_configs(), 4);
  EXPECT_DOUBLE_EQ(app->input_space.Probability(3), 0.5 * 0.75);
}

TEST(SplParserTest, CommentsAndWhitespace) {
  const char* text =
      "application c{// trailing comment\n"
      "source s{rate r=1@1.0;}\n"
      "# hash comment\n"
      "pe p;sink k;stream s->p[cost=1];stream p->k;}";
  EXPECT_TRUE(ParseApplication(text).ok());
}

TEST(SplParserTest, RejectsLexicalGarbage) {
  EXPECT_FALSE(ParseApplication("application x { % }").ok());
  EXPECT_FALSE(ParseApplication("application x { pe a- ; }").ok());
}

TEST(SplParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(ParseApplication("").ok());
  EXPECT_FALSE(ParseApplication("application {").ok());
  EXPECT_FALSE(ParseApplication("application x { pe a }").ok());  // missing ';'
  EXPECT_FALSE(ParseApplication("application x { widget w; }").ok());
  EXPECT_FALSE(
      ParseApplication("application x { source s { rate r = 1; } }").ok());  // no '@'
  EXPECT_FALSE(ParseApplication("application x { pe a; } trailing").ok());
}

TEST(SplParserTest, RejectsSemanticErrors) {
  // Duplicate identifier.
  EXPECT_FALSE(ParseApplication(R"(
application x {
  source s { rate r = 1 @ 1.0; }
  pe s;
  sink k;
  stream s -> k;
})")
                   .ok());
  // Undeclared stream endpoint.
  EXPECT_FALSE(ParseApplication(R"(
application x {
  source s { rate r = 1 @ 1.0; }
  pe a; sink k;
  stream s -> ghost;
  stream a -> k;
})")
                   .ok());
  // Probabilities not summing to 1.
  EXPECT_FALSE(ParseApplication(R"(
application x {
  source s { rate lo = 1 @ 0.5; rate hi = 2 @ 0.4; }
  pe a; sink k;
  stream s -> a [cost = 1];
  stream a -> k;
})")
                   .ok());
  // Unknown cost unit.
  EXPECT_FALSE(ParseApplication(R"(
application x {
  source s { rate r = 1 @ 1.0; }
  pe a; sink k;
  stream s -> a [cost = 3parsecs];
  stream a -> k;
})")
                   .ok());
  // Cycle between PEs (graph validation).
  EXPECT_FALSE(ParseApplication(R"(
application x {
  source s { rate r = 1 @ 1.0; }
  pe a; pe b; sink k;
  stream s -> a [cost = 1];
  stream a -> b [cost = 1];
  stream b -> a [cost = 1];
  stream b -> k;
})")
                   .ok());
}

TEST(SplParserTest, RejectsOverflowingNumbers) {
  // strtod turns 1e999 into ∞; the model's own checks reject the value.
  const char* const texts[] = {
      R"(application x {
  source s { rate Low = 1 @ 0.5; rate High = 1e999 @ 0.5; }
  pe a; sink k;
  stream s -> a [cost = 1];
  stream a -> k;
})",
      R"(application x {
  source s { rate r = 1 @ 1.0; }
  pe a; sink k;
  stream s -> a [selectivity = 1e999, cost = 1];
  stream a -> k;
})",
  };
  for (const char* text : texts) {
    Result<model::ApplicationDescriptor> app = ParseApplication(text);
    ASSERT_FALSE(app.ok()) << text;
    EXPECT_NE(app.status().message().find("inf"), std::string::npos)
        << app.status().ToString();
  }
}

TEST(SplParserTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/laar_spl_test.spl";
  {
    std::ofstream out(path);
    out << kPipeline;
  }
  Result<model::ApplicationDescriptor> app = ParseApplicationFile(path);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  EXPECT_EQ(app->name, "pipeline");
  std::remove(path.c_str());
  EXPECT_FALSE(ParseApplicationFile("/nonexistent/app.spl").ok());
}

}  // namespace
}  // namespace laar::spl
