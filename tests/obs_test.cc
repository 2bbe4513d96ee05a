#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/common/logging.h"
#include "laar/common/stats.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/model/descriptor.h"
#include "laar/model/placement.h"
#include "laar/obs/chrome_trace.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/timeseries.h"
#include "laar/obs/trace_recorder.h"
#include "laar/runtime/corpus.h"
#include "laar/strategy/activation_strategy.h"
#include "scoped_temp_dir.h"

namespace laar {
namespace {

using dsps::InputTrace;
using dsps::RuntimeOptions;
using dsps::StreamSimulation;
using model::ApplicationDescriptor;
using model::Cluster;
using model::ComponentId;
using model::ReplicaPlacement;
using model::SourceRateSet;
using strategy::ActivationStrategy;

// ---------------------------------------------------------------- recorder

TEST(TraceRecorderTest, RingBufferEvictsOldestAndCountsOverwrites) {
  obs::TraceRecorder::Options options;
  options.capacity = 4;
  obs::TraceRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.Instant(obs::EventName::kTupleDrop, static_cast<double>(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
  const std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: times 6, 7, 8, 9.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].time, 6.0 + static_cast<double>(i));
  }
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
}

TEST(TraceRecorderTest, CategoryMaskFiltersAtEmission) {
  obs::TraceRecorder::Options options;
  options.categories = static_cast<uint32_t>(obs::Category::kFailures);
  obs::TraceRecorder recorder(options);
  EXPECT_TRUE(recorder.Wants(obs::Category::kFailures));
  EXPECT_FALSE(recorder.Wants(obs::Category::kDrops));
  recorder.Instant(obs::EventName::kTupleDrop, 1.0);
  recorder.Instant(obs::EventName::kHostCrash, 2.0);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.Events()[0].name, obs::EventName::kHostCrash);
  EXPECT_EQ(recorder.total_recorded(), 1u);  // filtered events never count
}

TEST(TraceRecorderTest, ParseCategoryList) {
  bool ok = false;
  EXPECT_EQ(obs::ParseCategoryList("", &ok), obs::kAllCategories);
  EXPECT_TRUE(ok);
  EXPECT_EQ(obs::ParseCategoryList("drops,failures", &ok),
            static_cast<uint32_t>(obs::Category::kDrops) |
                static_cast<uint32_t>(obs::Category::kFailures));
  EXPECT_TRUE(ok);
  obs::ParseCategoryList("drops,nonsense", &ok);
  EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, LookupCreatesAndLabelsAreOrderInsensitive) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("tuples", {{"a", "1"}, {"b", "2"}});
  obs::Counter* c2 = registry.GetCounter("tuples", {{"b", "2"}, {"a", "1"}});
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);  // same instance: labels canonicalize
  c1->Increment(3.0);
  const obs::Counter* found = registry.FindCounter("tuples", {{"b", "2"}, {"a", "1"}});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value(), 3.0);
  // A name registered as a counter cannot come back as a gauge.
  EXPECT_EQ(registry.GetGauge("tuples", {{"a", "1"}, {"b", "2"}}), nullptr);
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAcrossInsertionOrder) {
  obs::MetricsRegistry forward;
  obs::MetricsRegistry backward;
  for (int i = 0; i < 5; ++i) {
    const std::string label = std::to_string(i);
    forward.GetCounter("c", {{"k", label}})->Increment(i);
    forward.GetGauge("g", {{"k", label}})->Set(i);
  }
  for (int i = 4; i >= 0; --i) {
    const std::string label = std::to_string(i);
    backward.GetGauge("g", {{"k", label}})->Set(i);
    backward.GetCounter("c", {{"k", label}})->Increment(i);
  }
  EXPECT_EQ(forward.ToJson().Dump(), backward.ToJson().Dump());
}

TEST(MetricsRegistryTest, CrossLabelRollups) {
  obs::MetricsRegistry registry;
  registry.GetCounter("drops", {{"seed", "1"}})->Increment(2.0);
  registry.GetCounter("drops", {{"seed", "2"}})->Increment(5.0);
  registry.GetGauge("depth", {{"seed", "1"}})->Set(7.0);
  registry.GetGauge("depth", {{"seed", "2"}})->Set(3.0);
  EXPECT_DOUBLE_EQ(registry.SumCounters("drops"), 7.0);
  EXPECT_DOUBLE_EQ(registry.MaxGauge("depth"), 7.0);
  EXPECT_DOUBLE_EQ(registry.SumCounters("absent"), 0.0);
  EXPECT_DOUBLE_EQ(registry.MaxGauge("absent"), 0.0);
}

TEST(TimeSeriesTest, RingEvictsOldestAndReportsCounts) {
  obs::TimeSeries series(4);
  for (int i = 0; i < 10; ++i) series.Append(static_cast<double>(i), i * 10.0);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.capacity(), 4u);
  EXPECT_EQ(series.total_appended(), 10u);
  EXPECT_EQ(series.overwritten(), 6u);
  const std::vector<obs::TimeSeries::Sample> samples = series.Samples();
  ASSERT_EQ(samples.size(), 4u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].time, 6.0 + static_cast<double>(i));
    EXPECT_DOUBLE_EQ(samples[i].value, (6.0 + static_cast<double>(i)) * 10.0);
  }
}

TEST(MetricsRegistryTest, TimeSeriesEntriesExportDeterministically) {
  obs::MetricsRegistry forward;
  obs::MetricsRegistry backward;
  for (int i = 0; i < 3; ++i) {
    const std::string label = std::to_string(i);
    obs::TimeSeries* s = forward.GetTimeSeries("ts_x", {{"pe", label}}, 8);
    ASSERT_NE(s, nullptr);
    s->Append(1.0, i);
    s->Append(2.0, i + 0.5);
  }
  for (int i = 2; i >= 0; --i) {
    const std::string label = std::to_string(i);
    obs::TimeSeries* s = backward.GetTimeSeries("ts_x", {{"pe", label}}, 8);
    ASSERT_NE(s, nullptr);
    s->Append(1.0, i);
    s->Append(2.0, i + 0.5);
  }
  EXPECT_EQ(obs::TimeSeriesCsv(forward), obs::TimeSeriesCsv(backward));
  EXPECT_EQ(obs::TimeSeriesJson(forward).Dump(), obs::TimeSeriesJson(backward).Dump());
  EXPECT_EQ(forward.ToJson().Dump(), backward.ToJson().Dump());
  // The CSV carries the fixed header and one row per sample.
  const std::string csv = obs::TimeSeriesCsv(forward);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "series,labels,time,value");
  EXPECT_NE(csv.find("ts_x,pe=1,2,1.5"), std::string::npos);
  // Type exclusivity extends to series: the name cannot come back as gauge.
  EXPECT_EQ(forward.GetGauge("ts_x", {{"pe", "1"}}), nullptr);
  // Snapshots are sorted by (name, labels).
  const auto snapshots = forward.SnapshotTimeSeries();
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0].labels[0].second, "0");
  EXPECT_EQ(snapshots[2].labels[0].second, "2");
}

TEST(HistogramTest, FromCountsRoundTripsSerializedState) {
  Histogram original(0.0, 10.0, 4);
  original.Add(-1.0);  // underflow
  original.Add(1.0);
  original.Add(6.0);
  original.Add(6.5);
  original.Add(25.0);  // overflow
  std::vector<size_t> counts;
  for (size_t i = 0; i < original.bins(); ++i) counts.push_back(original.count(i));
  const Histogram loaded = Histogram::FromCounts(
      original.lo(), original.hi(), counts, original.underflow(), original.overflow());
  EXPECT_DOUBLE_EQ(loaded.lo(), original.lo());
  EXPECT_DOUBLE_EQ(loaded.hi(), original.hi());
  ASSERT_EQ(loaded.bins(), original.bins());
  for (size_t i = 0; i < loaded.bins(); ++i) {
    EXPECT_EQ(loaded.count(i), original.count(i)) << "bin " << i;
  }
  EXPECT_EQ(loaded.underflow(), 1u);
  EXPECT_EQ(loaded.overflow(), 1u);
  EXPECT_EQ(loaded.total(), original.total());
}

// ------------------------------------------------------------- simulation

constexpr double kHz = 1e9;

/// The Fig. 3-style pipeline: source -> pe0 -> pe1 -> sink, two replicas
/// per PE spread over two hosts, rates {Low, High}. The default High rate
/// (20 t/s) exceeds a host's processing capacity (10 t/s at 0.1 s/tuple),
/// so a High period guarantees queue overflow drops; pass a feasible rate
/// (e.g. 8.0) for FT-Search scenarios that need a solvable instance.
struct SimFixture {
  ApplicationDescriptor app;
  Cluster cluster = Cluster::Homogeneous(2, kHz);
  ReplicaPlacement placement{0, 2};
  ComponentId source, pe0, pe1, sink;

  explicit SimFixture(double high_rate = 20.0) {
    source = app.graph.AddSource("s");
    pe0 = app.graph.AddPe("p0");
    pe1 = app.graph.AddPe("p1");
    sink = app.graph.AddSink("k");
    EXPECT_TRUE(app.graph.AddEdge(source, pe0, 1.0, 0.1 * kHz).ok());
    EXPECT_TRUE(app.graph.AddEdge(pe0, pe1, 1.0, 0.1 * kHz).ok());
    EXPECT_TRUE(app.graph.AddEdge(pe1, sink, 1.0, 0.0).ok());
    EXPECT_TRUE(app.graph.Validate().ok());
    SourceRateSet r;
    r.source = source;
    r.rates = {4.0, high_rate};
    r.labels = {"Low", "High"};
    r.probabilities = {0.8, 0.2};
    EXPECT_TRUE(app.input_space.AddSource(r).ok());
    EXPECT_TRUE(app.Validate().ok());
    placement = ReplicaPlacement(app.graph.num_components(), 2);
    EXPECT_TRUE(placement.Assign(pe0, 0, 0).ok());
    EXPECT_TRUE(placement.Assign(pe0, 1, 1).ok());
    EXPECT_TRUE(placement.Assign(pe1, 0, 0).ok());
    EXPECT_TRUE(placement.Assign(pe1, 1, 1).ok());
  }

  /// LAAR-style strategy: everything active at Low, one replica per PE
  /// (split across hosts) at High — the config switch produces activation
  /// events under dynamic control.
  ActivationStrategy LaarStrategy() const {
    ActivationStrategy s(app.graph.num_components(), 2, app.input_space.num_configs());
    s.SetActive(pe0, 1, 1, false);
    s.SetActive(pe1, 0, 1, false);
    return s;
  }
};

TEST(SimulationTracingTest, DisabledTracingChangesNothing) {
  SimFixture f;
  auto trace = InputTrace::Step(0, 1, 30.0, 60.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy laar = f.LaarStrategy();

  RuntimeOptions plain;
  StreamSimulation baseline(f.app, f.cluster, f.placement, laar, *trace, plain);
  ASSERT_TRUE(baseline.Run().ok());

  RuntimeOptions traced_options;
  obs::TraceRecorder recorder;
  traced_options.trace_recorder = &recorder;
  StreamSimulation traced(f.app, f.cluster, f.placement, laar, *trace, traced_options);
  ASSERT_TRUE(traced.Run().ok());

  EXPECT_EQ(baseline.metrics().source_tuples, traced.metrics().source_tuples);
  EXPECT_EQ(baseline.metrics().sink_tuples, traced.metrics().sink_tuples);
  EXPECT_EQ(baseline.metrics().dropped_tuples, traced.metrics().dropped_tuples);
  EXPECT_EQ(baseline.metrics().activation_switches, traced.metrics().activation_switches);
  EXPECT_GT(recorder.total_recorded(), 0u);
}

TEST(SimulationTracingTest, ChromeTraceIsValidAndCarriesTheKeyEvents) {
  SimFixture f;
  // 30 s Low, then High until 80 s; host 1 crashes at t=40 for 5 s.
  auto trace = InputTrace::Step(0, 1, 30.0, 80.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy laar = f.LaarStrategy();
  RuntimeOptions options;
  obs::TraceRecorder recorder;
  options.trace_recorder = &recorder;
  StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(1, 40.0, 5.0).ok());
  ASSERT_TRUE(simulation.Run().ok());

  const json::Value chrome = obs::ToChromeTraceJson(recorder);
  const Status valid = obs::ValidateChromeTrace(chrome);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  const std::string dump = chrome.Dump();
  EXPECT_NE(dump.find("replica_deactivate"), std::string::npos);
  EXPECT_NE(dump.find("tuple_drop"), std::string::npos);
  EXPECT_NE(dump.find("host_crash"), std::string::npos);
  EXPECT_NE(dump.find("host_recover"), std::string::npos);
  EXPECT_NE(dump.find("input_config"), std::string::npos);
  EXPECT_NE(dump.find("queue_high_watermark"), std::string::npos);

  // Category filtering keeps the failure events and the metadata, drops
  // the rest, and stays schema-valid.
  auto filtered = obs::FilterChromeTrace(
      chrome, static_cast<uint32_t>(obs::Category::kFailures));
  ASSERT_TRUE(filtered.ok());
  EXPECT_TRUE(obs::ValidateChromeTrace(*filtered).ok());
  const std::string filtered_dump = filtered->Dump();
  EXPECT_NE(filtered_dump.find("host_crash"), std::string::npos);
  EXPECT_EQ(filtered_dump.find("tuple_drop"), std::string::npos);

  EXPECT_FALSE(obs::SummarizeChromeTrace(chrome).empty());
}

TEST(SimulationTracingTest, CrashRunsRenderOutageSpansAndLossEvents) {
  SimFixture f;
  auto trace = InputTrace::Step(0, 1, 60.0, 120.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy laar = f.LaarStrategy();

  auto run_traced = [&](std::string* dump) {
    RuntimeOptions options;
    obs::TraceRecorder recorder;
    options.trace_recorder = &recorder;
    StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
    // Overlapping two-host outage: both hosts dark 42-45 s.
    ASSERT_TRUE(simulation.ScheduleHostCrash(0, 40.0, 5.0).ok());
    ASSERT_TRUE(simulation.ScheduleHostCrash(1, 42.0, 6.0).ok());
    ASSERT_TRUE(simulation.Run().ok());
    EXPECT_GT(simulation.metrics().crash_lost_tuples, 0u);
    const json::Value chrome = obs::ToChromeTraceJson(recorder);
    const Status valid = obs::ValidateChromeTrace(chrome);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    *dump = chrome.Dump();

    // The exporter synthesizes span records from the crash/recover pairs so
    // outages render as bars (not just paired ticks) in Perfetto, and the
    // per-loss instants carry their provenance.
    EXPECT_NE(dump->find("host_outage"), std::string::npos);
    EXPECT_NE(dump->find("replica_outage"), std::string::npos);
    EXPECT_NE(dump->find("tuple_crash_loss"), std::string::npos);

    // Category filtering keeps the synthesized spans with the rest of the
    // failure events, and the drops view keeps the loss provenance.
    auto failures = obs::FilterChromeTrace(
        chrome, static_cast<uint32_t>(obs::Category::kFailures));
    ASSERT_TRUE(failures.ok());
    EXPECT_TRUE(obs::ValidateChromeTrace(*failures).ok());
    EXPECT_NE(failures->Dump().find("host_outage"), std::string::npos);
    EXPECT_EQ(failures->Dump().find("tuple_crash_loss"), std::string::npos);
    auto drops = obs::FilterChromeTrace(
        chrome, static_cast<uint32_t>(obs::Category::kDrops));
    ASSERT_TRUE(drops.ok());
    EXPECT_NE(drops->Dump().find("tuple_crash_loss"), std::string::npos);
  };

  // Identical runs export byte-identical traces — the forensics layer can
  // trust crash traces to be deterministic artifacts.
  std::string dump1, dump2;
  run_traced(&dump1);
  run_traced(&dump2);
  EXPECT_EQ(dump1, dump2);
}

TEST(SimulationTracingTest, RegistrySummaryReflectsTheRun) {
  SimFixture f;
  auto trace = InputTrace::Step(0, 1, 30.0, 60.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy laar = f.LaarStrategy();
  RuntimeOptions options;
  StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());

  obs::MetricsRegistry registry;
  dsps::PublishTo(&registry, simulation.metrics());
  const obs::Counter* in = registry.FindCounter("sim_source_tuples");
  ASSERT_NE(in, nullptr);
  EXPECT_DOUBLE_EQ(in->value(),
                   static_cast<double>(simulation.metrics().source_tuples));
  const std::string summary = dsps::RunSummaryFromRegistry(registry);
  EXPECT_NE(summary.find("drops="), std::string::npos);
  EXPECT_NE(summary.find("switches="), std::string::npos);
  EXPECT_NE(summary.find("worst_queue_depth="), std::string::npos);
  // The aggregate roll-up equals the single-run summary prefix when only
  // one label set exists.
  const std::string aggregate = dsps::AggregateRunSummaryFromRegistry(registry);
  EXPECT_EQ(summary.substr(0, aggregate.size()), aggregate);
}

// --------------------------------------------------------- latency tracing

TEST(LatencyTracerTest, SamplingDecisionsAreSeededAndDeterministic) {
  obs::LatencyTracer::Options options;
  options.sample_rate = 0.5;
  options.seed = 7;
  obs::LatencyTracer a(options);
  obs::LatencyTracer b(options);
  std::vector<uint32_t> decisions_a;
  std::vector<uint32_t> decisions_b;
  for (int i = 0; i < 200; ++i) {
    decisions_a.push_back(a.SampleRoot(0, i * 0.1));
    decisions_b.push_back(b.SampleRoot(0, i * 0.1));
  }
  EXPECT_EQ(decisions_a, decisions_b);  // same seed => same decisions
  EXPECT_GT(a.sampled_roots(), 50u);    // roughly half, seeded hash
  EXPECT_LT(a.sampled_roots(), 150u);

  options.seed = 8;
  obs::LatencyTracer c(options);
  std::vector<uint32_t> decisions_c;
  for (int i = 0; i < 200; ++i) decisions_c.push_back(c.SampleRoot(0, i * 0.1));
  EXPECT_NE(decisions_a, decisions_c);  // a different seed reshuffles

  obs::LatencyTracer disabled;  // default rate 0
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.SampleRoot(0, 0.0), 0u);
}

TEST(LatencyTracerTest, RateOneTracesEveryTupleAndBuildsSpanTrees) {
  obs::LatencyTracer::Options options;
  options.sample_rate = 1.0;
  obs::LatencyTracer tracer(options);
  const uint32_t root = tracer.SampleRoot(0, 1.0);
  ASSERT_NE(root, 0u);
  tracer.RecordHop(root, obs::HopKind::kEnqueue, 1.0, 0.0, 2, 0, 0, 0);
  tracer.RecordHop(root, obs::HopKind::kDequeue, 1.5, 0.5, 2, 0, 0, 0);
  tracer.RecordHop(root, obs::HopKind::kProcess, 1.7, 0.2, 2, 0, 0, 0);
  const uint32_t child = tracer.Fork(root, 2, 1.7);
  ASSERT_NE(child, 0u);
  tracer.RecordHop(child, obs::HopKind::kSink, 2.0, 0.0, 5, -1, -1, 0);
  EXPECT_EQ(tracer.sampled_roots(), 1u);
  EXPECT_EQ(tracer.PathOf(child), "0>2");

  const obs::LatencyBreakdown breakdown = tracer.Breakdown();
  EXPECT_EQ(breakdown.sink_arrivals, 1u);
  ASSERT_EQ(breakdown.operators.size(), 1u);
  EXPECT_EQ(breakdown.operators[0].component, 2);
  EXPECT_EQ(breakdown.operators[0].queue_wait.count(), 1u);
  EXPECT_DOUBLE_EQ(breakdown.operators[0].queue_wait.mean(), 0.5);
  EXPECT_DOUBLE_EQ(breakdown.operators[0].service.mean(), 0.2);
  ASSERT_EQ(breakdown.paths.size(), 1u);
  EXPECT_EQ(breakdown.paths[0].path, "0>2>5");
  EXPECT_DOUBLE_EQ(breakdown.end_to_end.mean(), 1.0);  // 2.0 - root start 1.0
  EXPECT_FALSE(breakdown.ToString().empty());
  EXPECT_TRUE(breakdown.ToJson().is_object());
}

TEST(SimulationLatencyTracingTest, SamplingChangesNoMetricsAndIsReproducible) {
  SimFixture f;
  auto trace = InputTrace::Step(0, 1, 30.0, 60.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy laar = f.LaarStrategy();

  RuntimeOptions plain;
  StreamSimulation baseline(f.app, f.cluster, f.placement, laar, *trace, plain);
  ASSERT_TRUE(baseline.Run().ok());

  auto run_traced = [&](std::string* chrome_dump, std::string* breakdown_dump,
                        dsps::SimulationMetrics* metrics) {
    obs::TraceRecorder recorder;
    obs::LatencyTracer::Options tracer_options;
    tracer_options.sample_rate = 0.25;
    tracer_options.seed = 42;
    obs::LatencyTracer tracer(tracer_options);
    RuntimeOptions options;
    options.trace_recorder = &recorder;
    options.latency_tracer = &tracer;
    StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
    ASSERT_TRUE(simulation.Run().ok());
    EXPECT_GT(tracer.sampled_roots(), 0u);
    const obs::LatencyBreakdown breakdown = tracer.Breakdown();
    EXPECT_GT(breakdown.sink_arrivals, 0u);
    EXPECT_GT(breakdown.operators.size(), 0u);
    // The High period overflows queues, so sampled tuples hit drops too.
    uint64_t drops = 0;
    for (const obs::OperatorLatency& op : breakdown.operators) drops += op.drops;
    EXPECT_GT(drops, 0u);
    const json::Value chrome = obs::ToChromeTraceJson(recorder, &tracer);
    EXPECT_TRUE(obs::ValidateChromeTrace(chrome).ok());
    *chrome_dump = chrome.Dump();
    *breakdown_dump = breakdown.ToJson().Dump();
    *metrics = simulation.metrics();
  };

  std::string chrome1, chrome2, breakdown1, breakdown2;
  dsps::SimulationMetrics m1, m2;
  run_traced(&chrome1, &breakdown1, &m1);
  run_traced(&chrome2, &breakdown2, &m2);

  // Same seed => byte-identical artifacts.
  EXPECT_EQ(chrome1, chrome2);
  EXPECT_EQ(breakdown1, breakdown2);

  // Sampling must observe, never perturb: metrics match the plain run.
  EXPECT_EQ(baseline.metrics().source_tuples, m1.source_tuples);
  EXPECT_EQ(baseline.metrics().sink_tuples, m1.sink_tuples);
  EXPECT_EQ(baseline.metrics().dropped_tuples, m1.dropped_tuples);
  EXPECT_EQ(baseline.metrics().activation_switches, m1.activation_switches);
  EXPECT_EQ(baseline.metrics().TotalProcessed(), m1.TotalProcessed());
  EXPECT_DOUBLE_EQ(baseline.metrics().TotalCpuCycles(), m1.TotalCpuCycles());

  // The merged trace carries the tuple-level span events.
  EXPECT_NE(chrome1.find("tuple_queued"), std::string::npos);
  EXPECT_NE(chrome1.find("tuple_process"), std::string::npos);
  EXPECT_NE(chrome1.find("tuple_sink"), std::string::npos);
}

TEST(SimulationTelemetryTest, PeriodicSeriesAreRecordedAndReproducible) {
  SimFixture f;
  auto trace = InputTrace::Step(0, 1, 30.0, 60.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy laar = f.LaarStrategy();

  RuntimeOptions plain;
  StreamSimulation baseline(f.app, f.cluster, f.placement, laar, *trace, plain);
  ASSERT_TRUE(baseline.Run().ok());

  auto run_telemetry = [&](std::string* csv, uint64_t* sinks) {
    obs::MetricsRegistry registry;
    RuntimeOptions options;
    options.telemetry = &registry;
    options.telemetry_period_seconds = 2.0;
    StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
    ASSERT_TRUE(simulation.Run().ok());
    *csv = obs::TimeSeriesCsv(registry);
    *sinks = simulation.metrics().sink_tuples;

    // Every advertised series exists; the sampled ones carry data.
    for (const char* name :
         {"ts_source_rate", "ts_output_rate", "ts_drop_rate", "ts_pending_events"}) {
      ASSERT_NE(registry.FindTimeSeries(name), nullptr) << name;
    }
    const obs::TimeSeries* cpu =
        registry.FindTimeSeries("ts_host_cpu_util", {{"host", "0"}});
    ASSERT_NE(cpu, nullptr);
    EXPECT_GT(cpu->size(), 20u);  // 60 s at 2 s period
    double peak_util = 0.0;
    for (const auto& sample : cpu->Samples()) {
      peak_util = std::max(peak_util, sample.value);
      EXPECT_GE(sample.value, 0.0);
      EXPECT_LE(sample.value, 1.0 + 1e-9);
    }
    EXPECT_GT(peak_util, 0.5);  // the High period saturates host 0
    const obs::TimeSeries* depth =
        registry.FindTimeSeries("ts_queue_depth", {{"pe", std::to_string(f.pe0)}});
    ASSERT_NE(depth, nullptr);
    EXPECT_GT(depth->size(), 0u);
  };

  std::string csv1, csv2;
  uint64_t sinks1 = 0, sinks2 = 0;
  run_telemetry(&csv1, &sinks1);
  run_telemetry(&csv2, &sinks2);
  EXPECT_EQ(csv1, csv2);  // byte-identical CSV across same-seed runs
  EXPECT_FALSE(csv1.empty());

  // Telemetry sampling never perturbs the simulation itself.
  EXPECT_EQ(baseline.metrics().sink_tuples, sinks1);
  EXPECT_EQ(sinks1, sinks2);
}

// ------------------------------------------------------------------ corpus

runtime::HarnessOptions TinyHarness() {
  runtime::HarnessOptions options;
  options.generator.num_pes = 6;
  options.generator.num_hosts = 3;
  options.variants.laar_ic_requirements = {0.5};
  options.variants.ftsearch_time_limit_seconds = 0.0;
  options.variants.ftsearch_node_limit = 50000;
  options.trace_seconds = 30.0;
  options.trace_cycles = 2;
  return options;
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CorpusTracingTest, TraceFilesAndRegistryAreIdenticalAcrossJobs) {
  const ScopedTempDir base_dir("laar_obs_corpus");
  const std::filesystem::path& base = base_dir.path();

  runtime::CorpusOptions corpus;
  corpus.num_apps = 2;
  corpus.seed_base = 500;
  corpus.verbose = false;

  std::string reference_metrics;
  std::vector<std::string> reference_files;  // sorted name + content pairs
  for (int jobs : {1, 4}) {
    const std::filesystem::path dir = base / ("jobs" + std::to_string(jobs));
    std::filesystem::create_directories(dir);
    runtime::HarnessOptions harness = TinyHarness();
    obs::MetricsRegistry registry;
    harness.trace_dir = dir.string();
    harness.metrics = &registry;
    // Telemetry series and sampled latency gauges are labelled per
    // (seed, variant, scenario) — one writer each — so they must be
    // --jobs-invariant like the scalar aggregates and the trace files.
    harness.record_timeseries = true;
    harness.telemetry_period_seconds = 2.0;
    harness.latency_sample_rate = 0.1;
    corpus.jobs = jobs;
    const runtime::CorpusResult result = runtime::RunCorpus(harness, corpus);
    ASSERT_EQ(result.records.size(), 2u) << "jobs=" << jobs;

    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    std::vector<std::string> contents;
    for (const std::string& name : files) {
      contents.push_back(name + "\n" + ReadFileBytes(dir / name));
    }
    const std::string metrics_dump =
        registry.ToJson().Dump() + "\n" + obs::TimeSeriesCsv(registry);
    if (jobs == 1) {
      reference_files = std::move(contents);
      reference_metrics = metrics_dump;
    } else {
      ASSERT_EQ(contents.size(), reference_files.size());
      for (size_t i = 0; i < contents.size(); ++i) {
        EXPECT_EQ(contents[i], reference_files[i]) << "jobs=" << jobs;
      }
      EXPECT_EQ(metrics_dump, reference_metrics) << "jobs=" << jobs;
    }
  }
}

// --------------------------------------------------------------- ftsearch

TEST(FtSearchProgressTest, CallbackObservesWithoutChangingTheResult) {
  SimFixture f(/*high_rate=*/8.0);  // feasible: an incumbent must exist
  auto rates = model::ExpectedRates::Compute(f.app.graph, f.app.input_space);
  ASSERT_TRUE(rates.ok());

  ftsearch::FtSearchOptions plain;
  plain.ic_requirement = 0.5;
  auto baseline = ftsearch::RunFtSearch(f.app.graph, f.app.input_space, *rates,
                                        f.placement, f.cluster, plain);
  ASSERT_TRUE(baseline.ok());

  std::vector<ftsearch::FtSearchProgress> snapshots;
  ftsearch::FtSearchOptions observed = plain;
  observed.progress_interval_nodes = 1;
  observed.progress = [&](const ftsearch::FtSearchProgress& progress) {
    snapshots.push_back(progress);
  };
  auto traced = ftsearch::RunFtSearch(f.app.graph, f.app.input_space, *rates,
                                      f.placement, f.cluster, observed);
  ASSERT_TRUE(traced.ok());

  EXPECT_EQ(traced->outcome, baseline->outcome);
  EXPECT_DOUBLE_EQ(traced->best_cost, baseline->best_cost);
  EXPECT_DOUBLE_EQ(traced->best_ic, baseline->best_ic);

  ASSERT_FALSE(snapshots.empty());
  // The final snapshot is exact: it reports the merged end-of-run stats.
  const ftsearch::FtSearchProgress& last = snapshots.back();
  EXPECT_EQ(last.nodes_explored, traced->stats.nodes_explored);
  EXPECT_EQ(last.solutions_found, traced->stats.solutions_found);
  EXPECT_TRUE(last.has_incumbent);
  EXPECT_FALSE(last.ToString().empty());

  obs::MetricsRegistry registry;
  ftsearch::PublishTo(&registry, traced->stats);
  const obs::Counter* nodes = registry.FindCounter("ftsearch_nodes_explored");
  ASSERT_NE(nodes, nullptr);
  EXPECT_DOUBLE_EQ(nodes->value(), static_cast<double>(traced->stats.nodes_explored));
}

// Snapshots count explored nodes, the unit of the final snapshot, not the
// stop checks a node budget is charged in (about four per node). A search
// that ends inside its budget makes the difference visible: counted in
// stop checks, the live snapshots ran past the final node count.
TEST(FtSearchProgressTest, SnapshotsCountExploredNodes) {
  appgen::GeneratorOptions generator;
  generator.num_hosts = 3;
  generator.num_pes = 6;
  auto app = appgen::GenerateApplication(generator, 15);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  auto rates = model::ExpectedRates::Compute(app->descriptor.graph,
                                             app->descriptor.input_space);
  ASSERT_TRUE(rates.ok());

  std::vector<uint64_t> nodes;
  ftsearch::FtSearchOptions options;
  options.ic_requirement = 0.6;
  options.time_limit_seconds = 0.0;
  options.node_limit = 20000;
  options.progress_interval_nodes = 250;
  options.progress = [&](const ftsearch::FtSearchProgress& progress) {
    nodes.push_back(progress.nodes_explored);
  };
  auto result = ftsearch::RunFtSearch(app->descriptor.graph, app->descriptor.input_space,
                                      *rates, app->placement, app->cluster, options);
  ASSERT_TRUE(result.ok());
  // The search proves its answer well inside the budget.
  ASSERT_TRUE(result->outcome == ftsearch::SearchOutcome::kOptimal ||
              result->outcome == ftsearch::SearchOutcome::kInfeasible);
  ASSERT_GE(nodes.size(), 3u);
  EXPECT_EQ(nodes.back(), result->stats.nodes_explored);
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LE(nodes[i - 1], nodes[i]) << "snapshot " << i;
  }
}

// ---------------------------------------------------------------- logging

TEST(LoggingTest, ParseLogLevelAcceptsNamesAndNumbers) {
  LogLevel level = LogLevel::kWarning;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("4", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
  EXPECT_EQ(level, LogLevel::kOff);  // failures leave the value untouched
}

TEST(LoggingTest, InitLogLevelFromEnvHonorsTheVariable) {
  const LogLevel saved = GetLogLevel();
  ASSERT_EQ(setenv("LAAR_LOG_LEVEL", "debug", 1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  // An unparseable value leaves the level alone.
  ASSERT_EQ(setenv("LAAR_LOG_LEVEL", "nonsense", 1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  unsetenv("LAAR_LOG_LEVEL");
  SetLogLevel(saved);
}

}  // namespace
}  // namespace laar
