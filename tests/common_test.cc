#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "laar/common/flags.h"
#include "laar/common/result.h"
#include "laar/common/rng.h"
#include "laar/common/stats.h"
#include "laar/common/status.h"
#include "laar/common/stopwatch.h"
#include "laar/common/strings.h"

namespace laar {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::NotFound("key").WithContext("loading strategy");
  EXPECT_EQ(s.message(), "loading strategy: key");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  LAAR_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  LAAR_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_EQ(r.value_or(0), 21);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-3);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*DoublePositive(5), 10);
  EXPECT_FALSE(DoublePositive(0).ok());
}

TEST(ResultTest, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

// --------------------------------------------------------------------------
// Strings
// --------------------------------------------------------------------------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("pe%d r%d", 3, 1), "pe3 r1");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrSplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, TrimAndAffixes) {
  EXPECT_EQ(StrTrim("  x y\t\n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim(" \t "), "");
  EXPECT_TRUE(StartsWith("fig9_bench", "fig9"));
  EXPECT_FALSE(StartsWith("fig", "fig9"));
  EXPECT_TRUE(EndsWith("strategy.json", ".json"));
  EXPECT_FALSE(EndsWith("x", ".json"));
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed_differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextUint64();
    if (va != b.NextUint64()) all_equal = false;
    if (va != c.NextUint64()) any_diff_seed_differs = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_differs);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(23);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng forked = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(99);
  b.NextUint64();  // parent consumed one draw for the fork
  EXPECT_NE(forked.NextUint64(), b.NextUint64());
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --------------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------------

TEST(SampleStatsTest, BasicMoments) {
  SampleStats stats;
  stats.AddAll({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
}

TEST(SampleStatsTest, EmptyIsSafe) {
  SampleStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.Percentile(50), 0.0);
  EXPECT_EQ(stats.Summarize().count, 0u);
}

TEST(SampleStatsTest, PercentileInterpolates) {
  SampleStats stats;
  stats.AddAll({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 30.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(12.5), 15.0);
}

TEST(SampleStatsTest, BoxPlotWhiskersAndOutliers) {
  SampleStats stats;
  // Tight cluster plus one far outlier.
  stats.AddAll({1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 100.0});
  const BoxPlot box = stats.Summarize();
  EXPECT_EQ(box.count, 9u);
  EXPECT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers[0], 100.0);
  EXPECT_LE(box.whisker_high, 1.7);
  EXPECT_DOUBLE_EQ(box.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(box.max, 100.0);
}

TEST(SampleStatsTest, PercentileEdgeCases) {
  // Empty: every quantile (including out-of-range and NaN) is a defined 0.
  SampleStats empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(-5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);

  // One sample: every quantile is that sample.
  SampleStats single;
  single.Add(7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(100), 7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(std::numeric_limits<double>::quiet_NaN()), 7.5);

  // Multiple samples: out-of-range quantiles clamp to min/max, and a NaN
  // quantile falls back to the minimum instead of indexing out of bounds.
  SampleStats stats;
  stats.AddAll({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(stats.Percentile(-1), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(250), 30.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(std::numeric_limits<double>::quiet_NaN()), 10.0);
}

TEST(SampleStatsTest, PercentileAfterLaterAdds) {
  SampleStats stats;
  stats.Add(5.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 5.0);
  stats.Add(1.0);
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
}

// On an unsorted reservoir Percentile selects its two order statistics;
// the value must equal the sorted path's bit for bit. Each case grows one
// reservoir in chunks and, between chunks, calls min, max, Summarize or
// nothing, so a sorted cache left stale by a later Add would show. The
// reference is a fresh reservoir sorted by Summarize. Samples hold many
// duplicates but no -0.0, which compares equal to 0.0 and may land on
// either side of it in a sort or a selection.
TEST(SampleStatsTest, SelectedPercentilesMatchTheSortedPathBitForBit) {
  const double kQs[] = {std::numeric_limits<double>::quiet_NaN(),
                        -5.0,
                        0.0,
                        1e-9,
                        25.0,
                        50.0,
                        95.0,
                        99.0,
                        100.0 - 1e-12,
                        100.0,
                        150.0};
  Rng rng(25);
  int compared = 0;
  for (const size_t size : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{10000}}) {
    for (int round = 0; round < 4; ++round) {
      SampleStats stats;
      std::vector<double> added;
      do {
        const size_t chunk = std::min<size_t>(
            size - added.size(),
            static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(size / 4 + 1))));
        for (size_t i = 0; i < chunk; ++i) {
          const double value = rng.Bernoulli(0.9)
                                   ? 0.25 * static_cast<double>(rng.UniformInt(-40, 40))
                                   : rng.Uniform(-100.0, 100.0);
          stats.Add(value);
          added.push_back(value);
        }
        switch (rng.UniformInt(0, 3)) {
          case 0:
            stats.min();
            break;
          case 1:
            stats.max();
            break;
          case 2:
            stats.Summarize();
            break;
          default:
            break;
        }
        SampleStats reference;
        reference.AddAll(added);
        reference.Summarize();
        const double got_min = stats.min();
        const double want_min = reference.min();
        const double got_max = stats.max();
        const double want_max = reference.max();
        EXPECT_EQ(std::memcmp(&got_min, &want_min, sizeof(double)), 0) << "n=" << added.size();
        EXPECT_EQ(std::memcmp(&got_max, &want_max, sizeof(double)), 0) << "n=" << added.size();
        for (const double q : kQs) {
          const double got = stats.Percentile(q);
          const double want = reference.Percentile(q);
          EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << "n=" << added.size() << " q=" << q << ": " << got << " vs " << want;
          ++compared;
        }
      } while (added.size() < size);
    }
  }
  EXPECT_GT(compared, 500);
}

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.0);   // bin 0
  h.Add(1.99);  // bin 0
  h.Add(2.0);   // bin 1
  h.Add(9.99);  // bin 4
  h.Add(10.0);  // overflow
  h.Add(-0.1);  // underflow
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.BinLo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.BinHi(1), 4.0);
}

TEST(HistogramTest, DegenerateRangeDegradesToSingleCatchAllBin) {
  // hi <= lo used to produce a non-positive width and negative bin indices
  // in Add; it must degrade to one bin that swallows everything.
  for (Histogram h : {Histogram(5.0, 5.0, 4), Histogram(3.0, -2.0, 8)}) {
    h.Add(-1e9);
    h.Add(0.0);
    h.Add(4.99);
    h.Add(1e9);
    EXPECT_EQ(h.count(0), 4u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_FALSE(h.ToString(10).empty());
  }
}

TEST(HistogramTest, ZeroBinsBecomesOneBin) {
  Histogram h(0.0, 1.0, 0);
  h.Add(0.5);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(HistogramTest, ToStringMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.Add(0.25);
  h.Add(0.75);
  h.Add(0.8);
  const std::string rendered = h.ToString(10);
  EXPECT_NE(rendered.find("1"), std::string::npos);
  EXPECT_NE(rendered.find("2"), std::string::npos);
}

// --------------------------------------------------------------------------
// Stopwatch / Deadline
// --------------------------------------------------------------------------

TEST(StopwatchTest, MeasuresForwardTime) {
  Stopwatch watch;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMicros(), 0);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e12);
}

TEST(DeadlineTest, PastDeadlineExpires) {
  Deadline d = Deadline::After(-1.0);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  Deadline d = Deadline::After(60.0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 50.0);
}

// --------------------------------------------------------------------------
// Flags
// --------------------------------------------------------------------------

/// Parses `args` as a tool's argv (the program name is prepended).
Flags ParseFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, AcceptsWellFormedValues) {
  const Flags flags = ParseFlags({"--crash", "--jobs=-3", "--limit=1e9",
                                  "--seed=18446744073709551615", "--name=x"});
  EXPECT_EQ(flags.GetInt("crash", 0), 1);  // a bare flag reads as 1
  EXPECT_EQ(flags.GetInt("jobs", 0), -3);
  EXPECT_EQ(flags.GetDouble("limit", 0.0), 1e9);
  EXPECT_EQ(flags.GetUint64("seed", 0), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_EQ(flags.GetInt("absent", 7), 7);
}

TEST(FlagsDeathTest, RejectsMalformedNumbers) {
  const Flags flags = ParseFlags({"--jobs=abc", "--apps=1.5", "--empty=", "--ic=0.6x",
                                  "--node-limit=5000000000", "--seed=-1",
                                  "--time-limit=1e999", "--capacity=nan"});
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(flags.GetInt("jobs", 0), exits_2, "--jobs: expected an integer, got \"abc\"");
  EXPECT_EXIT(flags.GetInt("apps", 0), exits_2, "--apps: expected an integer, got \"1.5\"");
  EXPECT_EXIT(flags.GetInt("empty", 0), exits_2, "--empty: expected an integer, got \"\"");
  EXPECT_EXIT(flags.GetDouble("empty", 0.0), exits_2, "--empty: expected a number");
  EXPECT_EXIT(flags.GetDouble("ic", 0.0), exits_2, "--ic: expected a number");
  EXPECT_EXIT(flags.GetInt("node-limit", 0), exits_2,
              "--node-limit: expected an integer in \\[-2147483648, 2147483647\\]");
  EXPECT_EXIT(flags.GetUint64("seed", 0), exits_2, "--seed: expected a non-negative integer");
  EXPECT_EXIT(flags.GetDouble("time-limit", 0.0), exits_2,
              "--time-limit: expected a finite number");
  EXPECT_EXIT(flags.GetDouble("capacity", 0.0), exits_2,
              "--capacity: expected a finite number");
}

TEST(FlagsDeathTest, FinishRejectsWhatNoGetterRead) {
  const auto exits_2 = ::testing::ExitedWithCode(2);
  Flags unknown = ParseFlags({"--apps=3", "--no-such-flag=1"});
  EXPECT_EQ(unknown.GetInt("apps", 12), 3);
  EXPECT_EXIT(unknown.Finish(), exits_2, "unknown flag --no-such-flag ");
  Flags stray = ParseFlags({"--apps=3", "stray"});
  stray.GetInt("apps", 12);
  EXPECT_EXIT(stray.Finish(), exits_2, "unexpected argument \"stray\"");
  // A binary that takes positional arguments still gets no single-dash one.
  Flags dash = ParseFlags({"summarize", "-x"});
  dash.positional();
  EXPECT_EXIT(dash.Finish(), exits_2, "unexpected argument \"-x\"");
}

TEST(FlagsTest, FinishAcceptsTakenPositionalArguments) {
  Flags flags = ParseFlags({"diff", "--out=d.json", "a.json", "b.json"});
  EXPECT_EQ(flags.GetString("out", ""), "d.json");
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"diff", "a.json", "b.json"}));
  flags.Finish();
}

TEST(FlagsDeathTest, HelpListsEachDeclaredFlagOnceInReadOrder) {
  Flags flags = ParseFlags({"--help", "--unread=1"});
  flags.GetInt("apps", 12);
  flags.GetDouble("capacity", 1e9);
  flags.Has("crash");
  flags.GetString("out", "");
  flags.GetInt("apps", 12);  // a second read declares nothing new
  flags.Has("progress");
  flags.GetUint64("progress", 65536);  // declared by Has, without a default
  flags.GetDouble("high-fraction", 1.0 / 3.0);
  flags.GetUint64("seed", 18446744073709551615u);
  // Help goes to stdout; the death test matches stderr.
  std::fflush(stdout);
  EXPECT_EXIT(
      {
        dup2(STDERR_FILENO, STDOUT_FILENO);
        flags.Finish();
      },
      ::testing::ExitedWithCode(0),
      "^--apps=12\n--capacity=1e\\+09\n--crash\n--out=\n--progress\n"
      "--high-fraction=0\\.3333333333333333\n--seed=18446744073709551615\n$");
}

TEST(FlagsDeathTest, GetterAfterFinishAborts) {
  Flags flags = ParseFlags({"--apps=3"});
  EXPECT_EQ(flags.GetInt("apps", 12), 3);
  flags.Finish();
  EXPECT_DEATH(flags.GetInt("apps", 12), "--apps read after Finish\\(\\)");
  EXPECT_DEATH(flags.Has("late"), "--late read after Finish\\(\\)");
}

TEST(FlagsTest, UnfinishedFlagsWithoutArgumentsReturnEveryDefault) {
  // The benchmark harness reads the corpus benches' defaults this way and
  // never calls Finish().
  const Flags flags(0, nullptr);
  EXPECT_EQ(flags.GetInt("pes", 24), 24);
  EXPECT_EQ(flags.GetDouble("trace-seconds", 120.0), 120.0);
  EXPECT_EQ(flags.GetUint64("node-limit", 2000000), 2000000u);
  EXPECT_EQ(flags.GetString("trace-categories", "drops"), "drops");
  EXPECT_FALSE(flags.Has("crash"));
}

}  // namespace
}  // namespace laar
