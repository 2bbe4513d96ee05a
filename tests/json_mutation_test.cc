// A seeded mutation test over the JSON input surface. Byte edits (replace,
// insert, delete) of a generated descriptor and of its greedy strategy go
// through json::Parse and FromJson. Nothing may abort, and every mutant that
// FromJson accepts must round-trip byte for byte through ToJson → Dump →
// Parse → FromJson → ToJson.

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/common/rng.h"
#include "laar/json/json.h"
#include "laar/model/descriptor.h"
#include "laar/model/rates.h"
#include "laar/strategy/activation_strategy.h"
#include "laar/strategy/baselines.h"
#include "byte_mutator.h"

namespace laar {
namespace {

constexpr int kMutantsPerDocument = 4000;

/// JSON's own bytes, from which most mutants draw their new bytes.
constexpr std::string_view kJsonBytes = "0123456789+-.eE\"{}[],:tfnul ";

/// Passes `kMutantsPerDocument` mutants of `text` through Parse and
/// `T::FromJson`, and checks that each accepted one round-trips. Returns
/// how many were accepted.
template <typename T>
int CheckMutants(const std::string& text, uint64_t seed) {
  Rng rng(seed);
  int accepted = 0;
  int broken = 0;
  std::string first_broken;
  for (int m = 0; m < kMutantsPerDocument; ++m) {
    const std::string mutant = Mutate(text, kJsonBytes, rng);
    Result<json::Value> doc = json::Parse(mutant);
    if (!doc.ok()) continue;
    Result<T> value = T::FromJson(*doc);
    if (!value.ok()) continue;
    ++accepted;
    const std::string dumped = value->ToJson().Dump();
    Result<json::Value> reparsed = json::Parse(dumped);
    Result<T> again = reparsed.ok() ? T::FromJson(*reparsed) : Result<T>(reparsed.status());
    if (again.ok() && again->ToJson().Dump() == dumped) continue;
    if (broken++ == 0) {
      first_broken = "mutant " + std::to_string(m) + ": " +
                     (again.ok() ? "dumps differently" : again.status().ToString());
    }
  }
  EXPECT_EQ(broken, 0) << broken << " of " << accepted
                       << " accepted mutants do not round-trip; the first is " << first_broken;
  return accepted;
}

struct Documents {
  std::string descriptor;
  std::string strategy;
};

/// The `laar_generate --seed=7` app and its greedy strategy, as the files
/// the tools write.
Documents MakeDocuments() {
  Result<appgen::GeneratedApplication> app = appgen::GenerateApplication({}, 7);
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  if (!app.ok()) return {};
  const model::ApplicationDescriptor& descriptor = app->descriptor;
  Result<model::ExpectedRates> rates =
      model::ExpectedRates::Compute(descriptor.graph, descriptor.input_space);
  EXPECT_TRUE(rates.ok()) << rates.status().ToString();
  if (!rates.ok()) return {};
  const strategy::ActivationStrategy greedy = strategy::MakeGreedy(
      descriptor.graph, descriptor.input_space, *rates, app->placement, app->cluster);
  return {descriptor.ToJson().Dump(2), greedy.ToJson().Dump(2)};
}

TEST(JsonMutationTest, AcceptedDescriptorsRoundTrip) {
  const Documents documents = MakeDocuments();
  ASSERT_FALSE(documents.descriptor.empty());
  // Enough mutants get through for the property to bite.
  EXPECT_GT(CheckMutants<model::ApplicationDescriptor>(documents.descriptor, 1),
            kMutantsPerDocument / 20);
}

TEST(JsonMutationTest, AcceptedStrategiesRoundTrip) {
  const Documents documents = MakeDocuments();
  ASSERT_FALSE(documents.strategy.empty());
  EXPECT_GT(CheckMutants<strategy::ActivationStrategy>(documents.strategy, 2),
            kMutantsPerDocument / 20);
}

}  // namespace
}  // namespace laar
