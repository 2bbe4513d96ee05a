// The conservative-window engine's central contract (DESIGN.md §10): for a
// fixed link latency, the shard count is unobservable — every exported
// artifact (metrics-registry JSON, Chrome trace, telemetry CSV, health
// report) is byte-identical whether the run used 1, 2, or 4 shards. The
// single-shard run is genuinely single-threaded (no worker is spawned), so
// it doubles as the determinism reference the multi-shard runs are held to.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/json/json.h"
#include "laar/model/descriptor.h"
#include "laar/model/failure_topology.h"
#include "laar/model/placement.h"
#include "laar/obs/chrome_trace.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/health.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/timeseries.h"
#include "laar/obs/trace_recorder.h"
#include "laar/runtime/experiment.h"
#include "laar/strategy/activation_strategy.h"
#include "laar/strategy/baselines.h"

namespace laar::dsps {
namespace {

constexpr double kHz = 1e9;
constexpr double kLink = 0.05;  // conservative window width (seconds)

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunHashes {
  uint64_t metrics = 0;
  uint64_t trace = 0;
  uint64_t timeseries = 0;
  uint64_t health = 0;
};

enum class Outage { kNone, kHostCrash, kRackOutage };

/// One windowed run of a generated application under static replication,
/// with every observer attached, at the given shard count. Everything
/// except `shards` and the topology latency factors is held fixed, so at
/// equal factors differing hashes can only come from the partitioning.
RunHashes RunSharded(uint64_t seed, int shards, Outage outage,
                     int rack_factor = 1, int zone_factor = 1) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 12;
  generator.num_hosts = 6;
  generator.hosts_per_rack = 2;
  generator.racks_per_zone = 3;
  generator.domain_aware_placement = true;
  auto app = appgen::GenerateApplication(generator, seed);
  EXPECT_TRUE(app.ok()) << app.status().ToString();

  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  auto trace = runtime::MakeExperimentTrace(app->descriptor.input_space, 40.0,
                                            1.0 / 3.0, 2);
  EXPECT_TRUE(trace.ok());

  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  RuntimeOptions options;
  options.trace_recorder = &recorder;
  options.telemetry = &registry;
  options.link_latency_seconds = kLink;
  options.shards = shards;
  options.rack_latency_factor = rack_factor;
  options.zone_latency_factor = zone_factor;
  StreamSimulation simulation(app->descriptor, app->cluster, app->placement, sr,
                              *trace, options);
  switch (outage) {
    case Outage::kNone:
      break;
    case Outage::kHostCrash:
      EXPECT_TRUE(simulation.ScheduleHostCrash(1, 20.0, 10.0).ok());
      EXPECT_TRUE(simulation.ScheduleHostCrash(4, 45.0, 5.0).ok());
      break;
    case Outage::kRackOutage:
      // Every host of rack 0 down together: the correlated-failure shape
      // the domain-aware placement exists to survive.
      for (model::HostId host : app->cluster.topology().HostsInDomain(
               model::DomainLevel::kRack, 0)) {
        EXPECT_TRUE(simulation.ScheduleHostCrash(host, 25.0, 12.0).ok());
      }
      break;
  }
  EXPECT_TRUE(simulation.Run().ok());
  dsps::PublishTo(&registry, simulation.metrics());

  RunHashes hashes;
  hashes.metrics = Fnv1a(registry.ToJson().Dump());
  hashes.trace = Fnv1a(obs::ToChromeTraceJson(recorder, nullptr).Dump());
  hashes.timeseries = Fnv1a(obs::TimeSeriesCsv(registry));
  std::vector<obs::AlertRule> rules;
  rules.push_back(obs::ParseAlertRule("drops: ts_drop_rate > 0 warn").value());
  rules.push_back(
      obs::ParseAlertRule("saturation: ts_host_cpu_util > 0.99 for 5 warn").value());
  hashes.health = Fnv1a(obs::EvaluateHealth(registry, rules).ToJson().Dump());
  return hashes;
}

void ExpectShardCountInvariant(uint64_t seed, Outage outage) {
  const RunHashes one = RunSharded(seed, 1, outage);
  const RunHashes two = RunSharded(seed, 2, outage);
  const RunHashes four = RunSharded(seed, 4, outage);
  EXPECT_EQ(one.metrics, two.metrics) << "seed " << seed;
  EXPECT_EQ(one.trace, two.trace) << "seed " << seed;
  EXPECT_EQ(one.timeseries, two.timeseries) << "seed " << seed;
  EXPECT_EQ(one.health, two.health) << "seed " << seed;
  EXPECT_EQ(one.metrics, four.metrics) << "seed " << seed;
  EXPECT_EQ(one.trace, four.trace) << "seed " << seed;
  EXPECT_EQ(one.timeseries, four.timeseries) << "seed " << seed;
  EXPECT_EQ(one.health, four.health) << "seed " << seed;
}

TEST(ShardedSimTest, ShardCountIsUnobservable) {
  ExpectShardCountInvariant(6, Outage::kNone);
}

TEST(ShardedSimTest, ShardCountIsUnobservableUnderHostCrashes) {
  ExpectShardCountInvariant(8, Outage::kHostCrash);
}

TEST(ShardedSimTest, ShardCountIsUnobservableUnderRackOutage) {
  ExpectShardCountInvariant(11, Outage::kRackOutage);
}

/// A hand-built pipeline on the windowed engine: tuples still flow end to
/// end, nothing is lost, and every sink arrival carries at least one link
/// latency per cross-host hop (deliveries are quantized to barriers, so
/// each hop costs between one and two windows).
TEST(ShardedSimTest, WindowedPipelineDeliversWithLinkLatency) {
  model::ApplicationDescriptor app;
  model::ComponentId source = app.graph.AddSource("s");
  model::ComponentId pe0 = app.graph.AddPe("p0");
  model::ComponentId pe1 = app.graph.AddPe("p1");
  model::ComponentId sink = app.graph.AddSink("k");
  ASSERT_TRUE(app.graph.AddEdge(source, pe0, 1.0, 0.01 * kHz).ok());
  ASSERT_TRUE(app.graph.AddEdge(pe0, pe1, 1.0, 0.01 * kHz).ok());
  ASSERT_TRUE(app.graph.AddEdge(pe1, sink, 1.0, 0.0).ok());
  model::SourceRateSet r;
  r.source = source;
  r.rates = {4.0, 8.0};
  r.labels = {"Low", "High"};
  r.probabilities = {0.8, 0.2};
  ASSERT_TRUE(app.input_space.AddSource(r).ok());
  ASSERT_TRUE(app.Validate().ok());
  model::Cluster cluster = model::Cluster::Homogeneous(2, kHz);
  model::ReplicaPlacement placement(app.graph.num_components(), 2);
  ASSERT_TRUE(placement.Assign(pe0, 0, 0).ok());
  ASSERT_TRUE(placement.Assign(pe0, 1, 1).ok());
  ASSERT_TRUE(placement.Assign(pe1, 0, 1).ok());
  ASSERT_TRUE(placement.Assign(pe1, 1, 0).ok());
  strategy::ActivationStrategy sr =
      strategy::MakeStaticReplication(app.graph, app.input_space, 2);

  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.link_latency_seconds = kLink;
  options.shards = 2;
  StreamSimulation simulation(app, cluster, placement, sr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // 50 s at 4 t/s + 50 s at 8 t/s; the tail of the pipeline may still be
  // in flight at the horizon (three hops of up to two windows each).
  EXPECT_NEAR(static_cast<double>(m.source_tuples), 600.0, 2.0);
  EXPECT_EQ(m.dropped_tuples, 0u);
  EXPECT_GE(m.sink_tuples, m.source_tuples - 8);
  // source -> pe0 -> pe1 are two network hops of (L, 2L] each, plus
  // processing; the sink hop is quantized to the next barrier too.
  EXPECT_GE(m.sink_latency.min(), 2 * kLink);
  EXPECT_LE(m.sink_latency.max(), 6 * kLink + 2 * 0.01 + 0.01);
}

TEST(ShardedSimTest, MultipleShardsRequireLinkLatency) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 6;
  generator.num_hosts = 3;
  auto app = appgen::GenerateApplication(generator, 6);
  ASSERT_TRUE(app.ok());
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  auto trace = InputTrace::Step(0, 1, 5.0, 10.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.shards = 2;  // but link_latency_seconds left at 0
  StreamSimulation simulation(app->descriptor, app->cluster, app->placement, sr,
                              *trace, options);
  EXPECT_FALSE(simulation.Run().ok());
}

TEST(ShardedSimTest, WindowedEngineRejectsLatencyTracer) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 6;
  generator.num_hosts = 3;
  auto app = appgen::GenerateApplication(generator, 6);
  ASSERT_TRUE(app.ok());
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  auto trace = InputTrace::Step(0, 1, 5.0, 10.0);
  ASSERT_TRUE(trace.ok());
  obs::LatencyTracer::Options tracer_options;
  tracer_options.sample_rate = 0.5;
  obs::LatencyTracer tracer(tracer_options);
  RuntimeOptions options;
  options.link_latency_seconds = kLink;
  options.latency_tracer = &tracer;
  StreamSimulation simulation(app->descriptor, app->cluster, app->placement, sr,
                              *trace, options);
  EXPECT_FALSE(simulation.Run().ok());
}

// --- engine self-profiling (obs/engine_profiler.h) ---

struct ProfiledRun {
  obs::EngineProfile profile;
  uint64_t engine_events = 0;
};

/// One profiled windowed run on an 8-host generated application (8 hosts so
/// every shard count in {1, 2, 4, 8} gets a non-trivial host partition).
ProfiledRun RunProfiled(uint64_t seed, int shards) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 16;
  generator.num_hosts = 8;
  generator.hosts_per_rack = 2;
  auto app = appgen::GenerateApplication(generator, seed);
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  auto trace = runtime::MakeExperimentTrace(app->descriptor.input_space, 40.0,
                                            1.0 / 3.0, 2);
  EXPECT_TRUE(trace.ok());
  obs::EngineProfiler profiler;
  RuntimeOptions options;
  options.link_latency_seconds = kLink;
  options.shards = shards;
  options.profiler = &profiler;
  StreamSimulation simulation(app->descriptor, app->cluster, app->placement, sr,
                              *trace, options);
  EXPECT_TRUE(simulation.Run().ok());
  ProfiledRun run;
  run.profile = profiler.profile();
  run.engine_events = simulation.metrics().engine_events;
  return run;
}

/// The profiler's closure invariant at every supported shard count: control
/// events plus every shard's heap + inline events must equal the engine
/// total the simulation itself reports — both through ReconcileEvents and
/// by summing the raw counters here.
TEST(ShardedSimTest, ProfilerEventCountsReconcileAtEveryShardCount) {
  for (int shards : {1, 2, 4, 8}) {
    const ProfiledRun run = RunProfiled(13, shards);
    const obs::EngineProfile& profile = run.profile;
    EXPECT_TRUE(profile.ReconcileEvents().ok())
        << "shards=" << shards << ": " << profile.ReconcileEvents().ToString();
    uint64_t manual = profile.control_events;
    ASSERT_EQ(profile.shard_events.size(), static_cast<size_t>(shards));
    ASSERT_EQ(profile.shard_inline_events.size(), static_cast<size_t>(shards));
    for (int shard = 0; shard < shards; ++shard) {
      manual += profile.shard_events[static_cast<size_t>(shard)];
      manual += profile.shard_inline_events[static_cast<size_t>(shard)];
    }
    EXPECT_EQ(manual, run.engine_events) << "shards=" << shards;
    EXPECT_EQ(profile.engine_events, run.engine_events) << "shards=" << shards;
  }
}

// Captured from the single-shard run (LAAR_PRINT_HASHES=1 to regenerate).
constexpr uint64_t kProfileAggregateGolden = 0x3c5341aad5987b72ULL;

/// The deterministic aggregate — windows, per-window event totals, network
/// traffic, backlog — must not depend on the shard count, and must match
/// the golden hash exactly (it is a hashed artifact, unlike the measured
/// section).
TEST(ShardedSimTest, ProfilerAggregateIsShardInvariantAndGolden) {
  const std::string one = RunProfiled(13, 1).profile.DeterministicAggregateJson().Dump();
  const std::string two = RunProfiled(13, 2).profile.DeterministicAggregateJson().Dump();
  const std::string four = RunProfiled(13, 4).profile.DeterministicAggregateJson().Dump();
  const std::string eight = RunProfiled(13, 8).profile.DeterministicAggregateJson().Dump();
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  const uint64_t hash = Fnv1a(one);
  if (std::getenv("LAAR_PRINT_HASHES") != nullptr) {
    std::printf("kProfileAggregateGolden = 0x%016llx\n",
                static_cast<unsigned long long>(hash));
  }
  EXPECT_EQ(hash, kProfileAggregateGolden)
      << "deterministic profile aggregate changed; if intended, regenerate "
         "with LAAR_PRINT_HASHES=1";
}

/// Invariants of the measured (wall-clock) section: values vary run to run,
/// but their structure cannot — stalls are non-negative by construction
/// (worker intervals nest inside the coordinator's), the loop was actually
/// timed, every window maps to at least one phase, and the critical path
/// cannot exceed the summed phase walls.
TEST(ShardedSimTest, ProfilerMeasuredSectionInvariants) {
  for (int shards : {1, 4}) {
    const obs::EngineProfile profile = RunProfiled(13, shards).profile;
    EXPECT_GT(profile.loop_wall_seconds, 0.0);
    EXPECT_GE(profile.phases, profile.windows) << "shards=" << shards;
    EXPECT_GT(profile.windows, 0u);
    ASSERT_EQ(profile.shard_execute_seconds.size(), static_cast<size_t>(shards));
    ASSERT_EQ(profile.shard_stall_seconds.size(), static_cast<size_t>(shards));
    for (int shard = 0; shard < shards; ++shard) {
      EXPECT_GE(profile.shard_execute_seconds[static_cast<size_t>(shard)], 0.0);
      EXPECT_GE(profile.shard_stall_seconds[static_cast<size_t>(shard)], 0.0);
    }
    // Termwise: max-over-shards execute <= phase wall, so the sums obey the
    // same order (tiny slack for floating-point accumulation).
    EXPECT_LE(profile.critical_path_seconds,
              profile.phase_wall_seconds * (1.0 + 1e-9) + 1e-12);
    EXPECT_GE(profile.SyncOverheadFraction(), 0.0);
    EXPECT_LE(profile.SyncOverheadFraction(), 1.0);
  }
}

/// A single-executor runner (the hardware_concurrency clamp on a small
/// machine) serializes every phase, so the phase−execute gap is the other
/// shards' execute time, not barrier wait: the profiler must record zero
/// stall and take the serial execute sum — not the slowest shard — as the
/// phase's critical-path contribution.
TEST(ShardedSimTest, ProfilerSingleExecutorPhasesHaveZeroStall) {
  obs::EngineProfiler serial;
  serial.Configure(3, kLink);
  serial.SetRunnerWorkers(1);
  serial.OnPhaseTiming(0.010, {0.004, 0.003, 0.002});
  for (double stall : serial.profile().shard_stall_seconds) {
    EXPECT_EQ(stall, 0.0);
  }
  EXPECT_DOUBLE_EQ(serial.profile().critical_path_seconds, 0.009);
  EXPECT_DOUBLE_EQ(serial.profile().phase_wall_seconds, 0.010);

  // Multi-executor phases keep the barrier-stall semantics: stall is the
  // coordinator wall minus the shard's nested execute interval, and the
  // slowest shard is the critical path.
  obs::EngineProfiler parallel;
  parallel.Configure(3, kLink);
  parallel.SetRunnerWorkers(3);
  parallel.OnPhaseTiming(0.010, {0.004, 0.003, 0.002});
  EXPECT_DOUBLE_EQ(parallel.profile().shard_stall_seconds[0], 0.006);
  EXPECT_DOUBLE_EQ(parallel.profile().shard_stall_seconds[1], 0.007);
  EXPECT_DOUBLE_EQ(parallel.profile().shard_stall_seconds[2], 0.008);
  EXPECT_DOUBLE_EQ(parallel.profile().critical_path_seconds, 0.004);
}

/// Serialization round trip: a profile written by ToJson and re-read by
/// FromJson still closes and preserves the deterministic section.
TEST(ShardedSimTest, ProfilerJsonRoundTripPreservesClosure) {
  const obs::EngineProfile profile = RunProfiled(13, 4).profile;
  const auto parsed = obs::EngineProfile::FromJson(profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ReconcileEvents().ok())
      << parsed->ReconcileEvents().ToString();
  EXPECT_EQ(parsed->shards, 4);
  EXPECT_EQ(parsed->windows, profile.windows);
  EXPECT_EQ(parsed->engine_events, profile.engine_events);
  EXPECT_EQ(parsed->shard_events, profile.shard_events);
  EXPECT_EQ(parsed->traffic_tuples, profile.traffic_tuples);
  EXPECT_EQ(parsed->barrier_sink_tuples, profile.barrier_sink_tuples);
  EXPECT_EQ(parsed->max_host_inbox_backlog, profile.max_host_inbox_backlog);
  // The per-window series deliberately does not survive serialization (only
  // its summary does), so the round-tripped aggregate is not compared.
  EXPECT_TRUE(parsed->window_events.empty());
}

// --- topology latency factors ---

void ExpectSameHashes(const RunHashes& a, const RunHashes& b, const char* what) {
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.timeseries, b.timeseries) << what;
  EXPECT_EQ(a.health, b.health) << what;
}

// Captured from the single-shard run at rack/zone factors 2/4, when due
// batches were still ordered by a comparison sort (LAAR_PRINT_HASHES=1 to
// regenerate).
constexpr RunHashes kLatencyFactorGolden = {0xa53e53847e51a65fULL, 0x580e44fca407f081ULL,
                                            0xc8b6fdabc9633893ULL, 0x0551c66275dd6a3dULL};

/// Heterogeneous link-latency factors change delivery times (so their
/// hashes differ from the factor-1 runs), but within a fixed factor set
/// the shard count stays unobservable, and the bytes match the golden.
/// Mixed factors are where one host's messages due at a barrier come from
/// different windows, so a drain order that agreed across shard counts but
/// not with the committed bytes would fail here.
TEST(ShardedSimTest, LatencyFactorsAreShardInvariant) {
  const bool print = std::getenv("LAAR_PRINT_HASHES") != nullptr;
  for (int shards : {1, 2, 4}) {
    const RunHashes got = RunSharded(6, shards, Outage::kNone, 2, 4);
    if (print) {
      if (shards == 1) {
        std::printf("kLatencyFactorGolden = {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                    "0x%016llxULL}\n",
                    static_cast<unsigned long long>(got.metrics),
                    static_cast<unsigned long long>(got.trace),
                    static_cast<unsigned long long>(got.timeseries),
                    static_cast<unsigned long long>(got.health));
      }
      continue;
    }
    ExpectSameHashes(kLatencyFactorGolden, got,
                     ("factors 2/4, shards " + std::to_string(shards)).c_str());
  }
  // Sanity: the factors actually changed something vs the uniform topology.
  const RunHashes uniform = RunSharded(6, 1, Outage::kNone);
  EXPECT_NE(kLatencyFactorGolden.metrics, uniform.metrics);
}

/// Misconfigured window options must fail Build, not silently run with a
/// broken conservative horizon.
TEST(ShardedSimTest, BuildRejectsInvalidWindowConfigurations) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 6;
  generator.num_hosts = 3;
  auto app = appgen::GenerateApplication(generator, 6);
  ASSERT_TRUE(app.ok());
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  auto trace = InputTrace::Step(0, 1, 5.0, 10.0);
  ASSERT_TRUE(trace.ok());
  auto run_with = [&](const RuntimeOptions& options) {
    StreamSimulation simulation(app->descriptor, app->cluster, app->placement,
                                sr, *trace, options);
    return simulation.Run();
  };
  {
    // A zero-window factor would let a cross-host tuple arrive inside the
    // emitting window, breaking the conservative lookahead.
    RuntimeOptions options;
    options.link_latency_seconds = kLink;
    options.rack_latency_factor = 0;
    EXPECT_FALSE(run_with(options).ok());
  }
  {
    // Latency factors scale the window width; without a window they are
    // meaningless and almost certainly a flag mistake.
    RuntimeOptions options;
    options.zone_latency_factor = 2;
    EXPECT_FALSE(run_with(options).ok());
  }
}

}  // namespace
}  // namespace laar::dsps
