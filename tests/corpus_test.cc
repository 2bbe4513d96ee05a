#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "laar/json/json.h"
#include "laar/obs/chrome_trace.h"
#include "laar/runtime/corpus.h"
#include "laar/runtime/report.h"
#include "scoped_temp_dir.h"

namespace laar::runtime {
namespace {

HarnessOptions TinyHarness() {
  HarnessOptions options;
  options.generator.num_pes = 6;
  options.generator.num_hosts = 3;
  options.variants.laar_ic_requirements = {0.5};
  // A binding-but-deterministic budget: seed usability must not depend on
  // machine load, or the jobs-invariance test below would be flaky.
  options.variants.ftsearch_time_limit_seconds = 0.0;
  options.variants.ftsearch_node_limit = 50000;
  options.trace_seconds = 30.0;
  options.trace_cycles = 2;
  return options;
}

CorpusOptions TinyCorpus(int jobs) {
  CorpusOptions corpus;
  corpus.num_apps = 3;
  corpus.seed_base = 500;
  corpus.jobs = jobs;
  corpus.verbose = false;
  return corpus;
}

TEST(CorpusTest, CollectsRequestedNumberOfApps) {
  const CorpusResult result = RunCorpus(TinyHarness(), TinyCorpus(1));
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_GE(result.skipped, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
  // Seeds strictly increase: the corpus keeps them in probing order.
  EXPECT_LT(result.records[0].app_seed, result.records[1].app_seed);
  EXPECT_LT(result.records[1].app_seed, result.records[2].app_seed);
  for (const AppExperimentRecord& record : result.records) {
    EXPECT_FALSE(record.variants.empty());
  }
}

TEST(CorpusTest, RecordsStageTimes) {
  const CorpusResult result = RunCorpus(TinyHarness(), TinyCorpus(1));
  ASSERT_FALSE(result.records.empty());
  for (const AppExperimentRecord& record : result.records) {
    EXPECT_GT(record.stages.solve_seconds, 0.0);
    EXPECT_GT(record.stages.simulate_best_seconds, 0.0);
    EXPECT_GT(record.stages.TotalSeconds(), 0.0);
  }
  const StageTimes totals = CorpusStageTotals(result.records);
  EXPECT_GT(totals.TotalSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(totals.TotalSeconds(), result.stage_totals.TotalSeconds());
  EXPECT_FALSE(FormatStageTimes(totals).empty());
}

TEST(CorpusTest, ParallelRunsProduceIdenticalRecords) {
  // The tentpole guarantee: --jobs must never change the records. The CSV
  // rendering is the record identity (it excludes timings).
  const HarnessOptions harness = TinyHarness();
  const CorpusResult serial = RunCorpus(harness, TinyCorpus(1));
  ASSERT_EQ(serial.records.size(), 3u);
  const std::string expected = CorpusToCsv(serial.records);
  for (int jobs : {2, 4, 8}) {
    const CorpusResult parallel = RunCorpus(harness, TinyCorpus(jobs));
    EXPECT_EQ(CorpusToCsv(parallel.records), expected) << "jobs=" << jobs;
    EXPECT_EQ(parallel.skipped, serial.skipped) << "jobs=" << jobs;
  }
}

/// Reads every .json in `dir` into a filename -> contents map.
std::map<std::string, std::string> SlurpTraceDir(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto parsed = json::ParseFile(entry.path().string());
    EXPECT_TRUE(parsed.ok()) << entry.path();
    if (parsed.ok()) files[entry.path().filename().string()] = parsed->Dump();
  }
  return files;
}

TEST(CorpusTest, DomainOutageRecordsAndTracesAreJobsInvariant) {
  // The crash scenarios draw from seeded RNGs keyed on the app seed, so a
  // corpus running domain outages must stay --jobs-invariant like the rest
  // — including the Chrome trace files it writes per (seed, variant,
  // scenario).
  HarnessOptions harness = TinyHarness();
  harness.generator.num_hosts = 4;
  harness.generator.hosts_per_rack = 2;
  harness.run_host_crash = true;
  harness.run_domain_outage = true;
  harness.domain_outage_bursts = 2;
  const ScopedTempDir serial_temp("laar_corpus_trace_serial");
  const std::filesystem::path& serial_dir = serial_temp.path();
  harness.trace_dir = serial_dir.string();
  const CorpusResult serial = RunCorpus(harness, TinyCorpus(1));
  ASSERT_EQ(serial.records.size(), 3u);
  const std::string expected = CorpusToCsv(serial.records);
  // The scenario actually ran: at least one variant reports domain output.
  bool any_domain = false;
  for (const AppExperimentRecord& record : serial.records) {
    for (const VariantMeasurement& m : record.variants) {
      any_domain = any_domain || m.processed_domain > 0;
    }
  }
  EXPECT_TRUE(any_domain);

  // Every written trace passes schema validation (which includes the
  // per-thread timestamp-monotonicity and crash/recover pairing checks),
  // and the outage scenarios render synthesized outage span bars.
  const std::map<std::string, std::string> serial_traces = SlurpTraceDir(serial_dir);
  ASSERT_FALSE(serial_traces.empty());
  bool saw_outage_spans = false;
  for (const auto& [name, contents] : serial_traces) {
    auto parsed = json::Parse(contents);
    ASSERT_TRUE(parsed.ok()) << name;
    const Status valid = obs::ValidateChromeTrace(*parsed);
    EXPECT_TRUE(valid.ok()) << name << ": " << valid.ToString();
    if (name.find("domain-outage") != std::string::npos) {
      EXPECT_NE(contents.find("host_crash"), std::string::npos) << name;
      saw_outage_spans = saw_outage_spans ||
                         (contents.find("host_outage") != std::string::npos &&
                          contents.find("replica_outage") != std::string::npos);
    }
  }
  EXPECT_TRUE(saw_outage_spans);

  for (int jobs : {2, 4}) {
    const ScopedTempDir parallel_dir("laar_corpus_trace_jobs" + std::to_string(jobs));
    harness.trace_dir = parallel_dir.path().string();
    const CorpusResult parallel = RunCorpus(harness, TinyCorpus(jobs));
    EXPECT_EQ(CorpusToCsv(parallel.records), expected) << "jobs=" << jobs;
    EXPECT_EQ(SlurpTraceDir(parallel_dir.path()), serial_traces) << "jobs=" << jobs;
  }
}

TEST(CorpusTest, SerialCorpusMayShareFtSearchPool) {
  // jobs == 1 with ftsearch_threads > 1: the corpus budgets its threads to
  // FT-Search instead; the records still must not change.
  HarnessOptions harness = TinyHarness();
  const CorpusResult reference = RunCorpus(harness, TinyCorpus(1));
  harness.variants.ftsearch_threads = 4;
  const CorpusResult threaded = RunCorpus(harness, TinyCorpus(1));
  EXPECT_EQ(CorpusToCsv(threaded.records), CorpusToCsv(reference.records));
}

TEST(CorpusTest, SerialExperimentMatchesCorpusRecords) {
  // RunAppExperiment and RunCorpus share one usability step, one
  // per-scenario runner and one fold: every record of a parallel corpus
  // must be exactly what the serial RunAppExperiment gives for its seed.
  const HarnessOptions harness = TinyHarness();
  const CorpusResult corpus = RunCorpus(harness, TinyCorpus(4));
  ASSERT_TRUE(corpus.status.ok()) << corpus.status.ToString();
  ASSERT_EQ(corpus.records.size(), 3u);
  for (AppExperimentRecord record : corpus.records) {
    Result<AppExperimentRecord> serial = RunAppExperiment(harness, record.app_seed);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    serial->stages = StageTimes{};
    record.stages = StageTimes{};
    EXPECT_EQ(RecordToJson(*serial).Dump(), RecordToJson(record).Dump())
        << "seed " << record.app_seed;
  }
}

TEST(CorpusTest, ConfigurationErrorsEndTheRunInsteadOfSkippingSeeds) {
  // A trace directory that does not exist, or zero engine shards, fails
  // every simulation of every seed. That is an error of the run, not a
  // corpus of unusable seeds: the status says so, and the seeds skipped
  // are exactly those of a healthy run.
  const CorpusResult healthy = RunCorpus(TinyHarness(), TinyCorpus(1));
  ASSERT_TRUE(healthy.status.ok());

  HarnessOptions unwritable = TinyHarness();
  unwritable.trace_dir =
      (std::filesystem::temp_directory_path() / "laar_corpus_no_such_dir" / "traces")
          .string();
  std::filesystem::remove_all(std::filesystem::path(unwritable.trace_dir).parent_path());
  HarnessOptions no_shards = TinyHarness();
  no_shards.runtime.shards = 0;

  for (int jobs : {1, 4}) {
    for (const HarnessOptions& harness : {unwritable, no_shards}) {
      const CorpusResult result = RunCorpus(harness, TinyCorpus(jobs));
      EXPECT_FALSE(result.status.ok()) << "jobs=" << jobs;
      EXPECT_TRUE(result.records.empty()) << "jobs=" << jobs;
      EXPECT_EQ(result.skipped, healthy.skipped) << "jobs=" << jobs;
    }
  }
}

TEST(CorpusTest, GivesUpAfterSkipBudget) {
  HarnessOptions harness = TinyHarness();
  // An unsatisfiable IC makes every seed unusable.
  harness.variants.laar_ic_requirements = {0.99999};
  harness.variants.ftsearch_node_limit = 20000;
  CorpusOptions corpus = TinyCorpus(1);
  corpus.max_skips_factor = 2;  // 3 apps * 2 = 6 skips, keeps the test fast
  const CorpusResult result = RunCorpus(harness, corpus);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.skipped, corpus.num_apps * corpus.max_skips_factor);
}

}  // namespace
}  // namespace laar::runtime
