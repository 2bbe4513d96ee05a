#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "laar/model/input_space.h"

namespace laar::model {
namespace {

SourceRateSet TwoRates(ComponentId source, double low, double high, double p_low) {
  SourceRateSet s;
  s.source = source;
  s.rates = {low, high};
  s.labels = {"Low", "High"};
  s.probabilities = {p_low, 1.0 - p_low};
  return s;
}

TEST(InputSpaceTest, SingleSourceTwoRates) {
  InputSpace space;
  ASSERT_TRUE(space.AddSource(TwoRates(0, 4.0, 8.0, 0.8)).ok());
  ASSERT_TRUE(space.Validate().ok());
  EXPECT_EQ(space.num_configs(), 2);
  EXPECT_DOUBLE_EQ(space.RateOf(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(space.RateOf(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(space.Probability(0), 0.8);
  EXPECT_DOUBLE_EQ(space.Probability(1), 0.2);
  EXPECT_EQ(space.ConfigLabel(0), "Low");
  EXPECT_EQ(space.ConfigLabel(1), "High");
  EXPECT_EQ(space.PeakConfig(), 1);
}

TEST(InputSpaceTest, CartesianProductOfTwoSources) {
  InputSpace space;
  ASSERT_TRUE(space.AddSource(TwoRates(0, 1.0, 2.0, 0.5)).ok());
  ASSERT_TRUE(space.AddSource(TwoRates(1, 10.0, 30.0, 0.25)).ok());
  EXPECT_EQ(space.num_configs(), 4);
  // Mixed radix: first source most significant.
  EXPECT_DOUBLE_EQ(space.RateOf(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(space.RateOf(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(space.RateOf(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(space.RateOf(1, 1), 30.0);
  EXPECT_DOUBLE_EQ(space.RateOf(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(space.RateOf(1, 2), 10.0);
  EXPECT_DOUBLE_EQ(space.RateOf(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(space.RateOf(1, 3), 30.0);
  // Independent product pmf.
  EXPECT_DOUBLE_EQ(space.Probability(0), 0.5 * 0.25);
  EXPECT_DOUBLE_EQ(space.Probability(3), 0.5 * 0.75);
  EXPECT_EQ(space.ConfigLabel(3), "(High, High)");
  EXPECT_EQ(space.PeakConfig(), 3);

  double total = 0.0;
  for (ConfigId c = 0; c < space.num_configs(); ++c) total += space.Probability(c);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(InputSpaceTest, ThreeLevelSource) {
  InputSpace space;
  SourceRateSet s;
  s.source = 2;
  s.rates = {1.0, 5.0, 9.0};
  s.probabilities = {0.2, 0.5, 0.3};
  ASSERT_TRUE(space.AddSource(s).ok());
  EXPECT_EQ(space.num_configs(), 3);
  EXPECT_EQ(space.ConfigLabel(1), "r1");  // auto labels
  EXPECT_EQ(space.PeakConfig(), 2);
}

TEST(InputSpaceTest, SourceIndexLookup) {
  InputSpace space;
  ASSERT_TRUE(space.AddSource(TwoRates(7, 1, 2, 0.5)).ok());
  EXPECT_EQ(*space.SourceIndexOf(7), 0u);
  EXPECT_FALSE(space.SourceIndexOf(3).ok());
  EXPECT_DOUBLE_EQ(*space.RateOfComponent(7, 1), 2.0);
  EXPECT_FALSE(space.RateOfComponent(3, 0).ok());
}

TEST(InputSpaceTest, RejectsBadPmf) {
  InputSpace space;
  SourceRateSet s;
  s.source = 0;
  s.rates = {1.0, 2.0};
  s.probabilities = {0.5, 0.6};  // sums to 1.1
  EXPECT_FALSE(space.AddSource(s).ok());
  s.probabilities = {-0.5, 1.5};
  EXPECT_FALSE(space.AddSource(s).ok());
  s.probabilities = {0.5};  // wrong arity
  EXPECT_FALSE(space.AddSource(s).ok());
}

TEST(InputSpaceTest, RejectsEmptyRatesAndDuplicates) {
  InputSpace space;
  SourceRateSet empty;
  empty.source = 0;
  EXPECT_FALSE(space.AddSource(empty).ok());
  ASSERT_TRUE(space.AddSource(TwoRates(0, 1, 2, 0.5)).ok());
  EXPECT_EQ(space.AddSource(TwoRates(0, 1, 2, 0.5)).code(), StatusCode::kAlreadyExists);
}

TEST(InputSpaceTest, RejectsNegativeRates) {
  InputSpace space;
  SourceRateSet s;
  s.source = 0;
  s.rates = {-1.0, 2.0};
  s.probabilities = {0.5, 0.5};
  EXPECT_FALSE(space.AddSource(s).ok());
}

TEST(InputSpaceTest, RejectsNonFiniteRatesAndProbabilities) {
  InputSpace space;
  SourceRateSet s = TwoRates(0, 1.0, std::numeric_limits<double>::infinity(), 0.5);
  const Status status = space.AddSource(s);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("got inf"), std::string::npos) << status.ToString();
  s.rates = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(space.AddSource(s).ok());
  s.rates = {1.0, 2.0};
  s.probabilities = {std::numeric_limits<double>::quiet_NaN(), 0.5};
  EXPECT_FALSE(space.AddSource(s).ok());
  EXPECT_EQ(space.num_sources(), 0u);
}

TEST(InputSpaceTest, ValidateRequiresSources) {
  InputSpace space;
  EXPECT_FALSE(space.Validate().ok());
}

TEST(InputSpaceTest, JointProbabilitiesOverride) {
  InputSpace space;
  ASSERT_TRUE(space.AddSource(TwoRates(0, 1, 2, 0.5)).ok());
  ASSERT_TRUE(space.AddSource(TwoRates(1, 3, 4, 0.5)).ok());
  ASSERT_TRUE(space.SetJointProbabilities({0.1, 0.2, 0.3, 0.4}).ok());
  EXPECT_TRUE(space.has_joint_probabilities());
  EXPECT_DOUBLE_EQ(space.Probability(2), 0.3);
  // Wrong size or unnormalized rejected.
  EXPECT_FALSE(space.SetJointProbabilities({0.5, 0.5}).ok());
  EXPECT_FALSE(space.SetJointProbabilities({0.1, 0.2, 0.3, 0.5}).ok());
}

TEST(InputSpaceTest, AddingSourceDropsStaleJointPmf) {
  InputSpace space;
  ASSERT_TRUE(space.AddSource(TwoRates(0, 1, 2, 0.5)).ok());
  ASSERT_TRUE(space.SetJointProbabilities({0.7, 0.3}).ok());
  ASSERT_TRUE(space.AddSource(TwoRates(1, 3, 4, 0.25)).ok());
  EXPECT_FALSE(space.has_joint_probabilities());
  EXPECT_DOUBLE_EQ(space.Probability(0), 0.5 * 0.25);
}

}  // namespace
}  // namespace laar::model
