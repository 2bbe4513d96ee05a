// A seeded mutation test over the SPL input surface, in the style of
// json_mutation_test. Byte edits (replace, insert, delete) of a two-source
// program go through spl::ParseApplication. Nothing may abort, and every
// descriptor the parser accepts must round-trip byte for byte through
// ToJson → Dump → Parse → FromJson → ToJson.

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "laar/common/rng.h"
#include "laar/json/json.h"
#include "laar/model/descriptor.h"
#include "laar/spl/spl_parser.h"
#include "byte_mutator.h"

namespace laar {
namespace {

constexpr int kMutants = 4000;

/// SPL's own bytes, from which most mutants draw their new bytes: digits,
/// exponents and units, punctuation, comment starters and whitespace.
constexpr std::string_view kSplBytes = "0123456789.eE+-msucyl@=;,{}[]>#/_ \n";

constexpr const char* kProgram = R"(
# Two sources join; the join feeds a filter and an audit sink.
application fan {
  source a { rate lo = 2 @ 0.5; rate hi = 8 @ 0.5; }
  source b { rate lo = 3 @ 0.25; rate hi = 9 @ 0.75; }
  pe join;
  pe filter;
  sink out;
  sink audit;
  stream a -> join [selectivity = 0.5, cost = 1ms];
  stream b -> join [selectivity = 1.5, cost = 2.5e3us];
  stream join -> filter [cost = 4e6cycles];
  stream filter -> out [selectivity = 0.25];
  stream join -> audit;  // default selectivity 1
}
)";

TEST(SplMutationTest, AcceptedProgramsRoundTrip) {
  ASSERT_TRUE(spl::ParseApplication(kProgram).ok());
  Rng rng(3);
  int accepted = 0;
  int broken = 0;
  std::string first_broken;
  for (int m = 0; m < kMutants; ++m) {
    const std::string mutant = Mutate(kProgram, kSplBytes, rng);
    Result<model::ApplicationDescriptor> app = spl::ParseApplication(mutant);
    if (!app.ok()) continue;
    ++accepted;
    const std::string dumped = app->ToJson().Dump();
    Result<json::Value> reparsed = json::Parse(dumped);
    Result<model::ApplicationDescriptor> again =
        reparsed.ok() ? model::ApplicationDescriptor::FromJson(*reparsed)
                      : Result<model::ApplicationDescriptor>(reparsed.status());
    if (again.ok() && again->ToJson().Dump() == dumped) continue;
    if (broken++ == 0) {
      first_broken = "mutant " + std::to_string(m) + ": " +
                     (again.ok() ? "dumps differently" : again.status().ToString());
    }
  }
  EXPECT_EQ(broken, 0) << broken << " of " << accepted
                       << " accepted mutants do not round-trip; the first is " << first_broken;
  // Enough mutants get through for the property to bite.
  EXPECT_GT(accepted, kMutants / 20);
}

}  // namespace
}  // namespace laar
