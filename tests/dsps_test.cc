#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/model/descriptor.h"
#include "laar/model/placement.h"
#include "laar/strategy/activation_strategy.h"
#include "laar/strategy/baselines.h"

namespace laar::dsps {
namespace {

using model::ApplicationDescriptor;
using model::Cluster;
using model::ComponentId;
using model::ReplicaPlacement;
using model::SourceRateSet;
using strategy::ActivationStrategy;

constexpr double kHz = 1e9;

/// source -> pe0 -> pe1 -> sink with configurable selectivity and per-tuple
/// cost (seconds at 1 GHz), rates {low, high} with probabilities {.8, .2}.
struct Fixture {
  ApplicationDescriptor app;
  Cluster cluster = Cluster::Homogeneous(2, kHz);
  ReplicaPlacement placement{0, 2};
  ComponentId source, pe0, pe1, sink;

  explicit Fixture(double low = 4.0, double high = 8.0, double sel0 = 1.0,
                   double sel1 = 1.0, double cost_seconds = 0.1) {
    source = app.graph.AddSource("s");
    pe0 = app.graph.AddPe("p0");
    pe1 = app.graph.AddPe("p1");
    sink = app.graph.AddSink("k");
    EXPECT_TRUE(app.graph.AddEdge(source, pe0, sel0, cost_seconds * kHz).ok());
    EXPECT_TRUE(app.graph.AddEdge(pe0, pe1, sel1, cost_seconds * kHz).ok());
    EXPECT_TRUE(app.graph.AddEdge(pe1, sink, 1.0, 0.0).ok());
    EXPECT_TRUE(app.graph.Validate().ok());
    SourceRateSet r;
    r.source = source;
    r.rates = {low, high};
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

  /// One active replica per PE, spread across both hosts (pe0 on host 0,
  /// pe1 on host 1) so the deployment is never overloaded — the paper's NR
  /// shape.
  ActivationStrategy SingleReplica() const {
    ActivationStrategy s(app.graph.num_components(), 2, app.input_space.num_configs());
    for (model::ConfigId c = 0; c < app.input_space.num_configs(); ++c) {
      s.SetActive(pe0, 1, c, false);
      s.SetActive(pe1, 0, c, false);
    }
    return s;
  }
};

TEST(StreamSimulationTest, SteadyStateProcessesEverything) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // 50 s at 4 t/s + 50 s at 8 t/s = 600 source tuples; all should flow
  // through to the sink (minus at most a couple in flight at the horizon).
  EXPECT_NEAR(static_cast<double>(m.source_tuples), 600.0, 2.0);
  EXPECT_GE(m.sink_tuples, m.source_tuples - 4);
  EXPECT_EQ(m.dropped_tuples, 0u);
  // Each PE processed every tuple exactly once (logical count).
  EXPECT_GE(m.pe_processed[f.pe0], m.source_tuples - 2);
  EXPECT_GE(m.pe_processed[f.pe1], m.source_tuples - 4);
}

TEST(StreamSimulationTest, CpuAccountingMatchesWork) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // ~600 tuples × 2 PEs × 0.1 s × 1e9 cycles/s.
  EXPECT_NEAR(m.TotalCpuCycles(), 600.0 * 2 * 0.1 * kHz, 0.02 * 600 * 2 * 0.1 * kHz);
  // Host cycles account the same total.
  EXPECT_NEAR(m.host_cycles[0] + m.host_cycles[1], m.TotalCpuCycles(), 1.0);
}

TEST(StreamSimulationTest, StaticReplicationDoublesCpuWhenNotSaturated) {
  Fixture f(/*low=*/2.0, /*high=*/4.0);  // fits even fully replicated
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;

  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation nr_run(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(nr_run.Run().ok());

  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation sr_run(f.app, f.cluster, f.placement, sr, *trace, options);
  ASSERT_TRUE(sr_run.Run().ok());

  EXPECT_NEAR(sr_run.metrics().TotalCpuCycles() / nr_run.metrics().TotalCpuCycles(), 2.0,
              0.05);
  // Replication must not duplicate sink output: only the primary forwards.
  EXPECT_NEAR(static_cast<double>(sr_run.metrics().sink_tuples),
              static_cast<double>(nr_run.metrics().sink_tuples), 4.0);
}

TEST(StreamSimulationTest, OverloadCausesQueueDropsAndReducedOutput) {
  Fixture f;  // High = 8 t/s saturates both hosts under SR
  auto trace = InputTrace::Step(0, 1, 50.0, 150.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation simulation(f.app, f.cluster, f.placement, sr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  EXPECT_GT(m.dropped_tuples, 0u);
  // Sink rate during High is capped by CPU: two ops share one host ->
  // 5 t/s each.
  const double peak_rate = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                       100.0, 150.0);
  EXPECT_NEAR(peak_rate, 5.0, 0.5);
}

TEST(StreamSimulationTest, SelectivityAccumulatorSemantics) {
  // sel0 = 0.5 downsamples by 2; sel1 = 1.5 upsamples by 1.5.
  Fixture f(/*low=*/4.0, /*high=*/4.0, /*sel0=*/0.5, /*sel1=*/1.5, /*cost=*/0.01);
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // 400 source tuples -> 200 out of pe0 -> 300 out of pe1.
  EXPECT_NEAR(static_cast<double>(m.sink_tuples), 300.0, 4.0);
  EXPECT_NEAR(static_cast<double>(m.pe_processed[f.pe1]), 200.0, 4.0);
}

TEST(StreamSimulationTest, DynamicControlAdaptsDuringPeak) {
  // The quickstart scenario: LAAR-style strategy keeps output at the input
  // rate during High while SR cannot.
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 120.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;

  ActivationStrategy laar(f.app.graph.num_components(), 2, 2);
  laar.SetActive(f.pe0, 1, 1, false);  // High: one replica per PE,
  laar.SetActive(f.pe1, 0, 1, false);  // on different hosts
  StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double peak_rate = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                       60.0, 120.0);
  EXPECT_NEAR(peak_rate, 8.0, 0.4);
  // Adaptation glitches may drop a few tuples, but not a flood.
  EXPECT_LE(m.dropped_tuples, 20u);
}

TEST(StreamSimulationTest, WithoutDynamicControlPeakSaturates) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 120.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.dynamic_control = false;  // stays in the Low activation state

  ActivationStrategy laar(f.app.graph.num_components(), 2, 2);
  laar.SetActive(f.pe0, 1, 1, false);
  laar.SetActive(f.pe1, 0, 1, false);
  StreamSimulation simulation(f.app, f.cluster, f.placement, laar, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  // Both replicas stay active during High (the Low entry is all-active):
  // hosts saturate and output falls behind, like static replication.
  const SimulationMetrics& m = simulation.metrics();
  const double peak_rate = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                       60.0, 120.0);
  EXPECT_LT(peak_rate, 6.0);
  EXPECT_GT(m.dropped_tuples, 0u);
}

TEST(StreamSimulationTest, PermanentFailureOfOnlyReplicaSilencesPipeline) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();  // only replica 0 ever active
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.InjectPermanentReplicaFailure(f.pe0, 0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // pe0's only active replica is dead and the secondary is never activated:
  // nothing flows.
  EXPECT_EQ(m.sink_tuples, 0u);
  EXPECT_EQ(m.pe_processed[f.pe0], 0u);
  EXPECT_EQ(m.pe_processed[f.pe1], 0u);
}

TEST(StreamSimulationTest, SecondaryTakesOverAfterPrimaryFails) {
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation simulation(f.app, f.cluster, f.placement, sr, *trace, options);
  // Replica 0 of pe0 (the initial primary) is dead from the start; the
  // active secondary is elected immediately at startup.
  ASSERT_TRUE(simulation.InjectPermanentReplicaFailure(f.pe0, 0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  EXPECT_GE(m.sink_tuples, m.source_tuples - 4);
  EXPECT_GE(m.pe_processed[f.pe0], m.source_tuples - 2);
}

TEST(StreamSimulationTest, HostCrashDipsOutputThenRecovers) {
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  // pe0's only active replica lives on host 0; crashing it starves the
  // whole pipeline until recovery (the secondary is never activated in NR).
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 16.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double during = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                    101.0, 115.0);
  const double after = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   130.0, 190.0);
  EXPECT_LT(during, 0.5);       // the only active replicas are dead
  EXPECT_NEAR(after, 2.0, 0.3); // recovered
  EXPECT_GT(m.sink_tuples, 0u);
}

TEST(StreamSimulationTest, ScheduleHostCrashRejectsNonFiniteTimes) {
  // A NaN start passes `at < 0` and, keyed at the heap root, would stop the
  // run before its first event; a NaN or infinite duration would make the
  // outage last zero seconds or forever. All fail at scheduling instead.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(simulation.ScheduleHostCrash(0, nan, 8.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(simulation.ScheduleHostCrash(0, inf, 8.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(simulation.ScheduleHostCrash(0, 10.0, nan).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(simulation.ScheduleHostCrash(0, 10.0, inf).code(), StatusCode::kInvalidArgument);
  // Nothing was scheduled: the run is the failure-free one.
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  EXPECT_GT(m.source_tuples, 0u);
  EXPECT_EQ(m.crash_lost_tuples, 0u);
  EXPECT_GE(m.sink_tuples, m.source_tuples - 4);
}

TEST(StreamSimulationTest, OverlappingCrashWindowsDoNotReviveEarly) {
  // Regression: two crash windows on one host overlap — the first window's
  // recovery timer must not bring the host back while the second (longer)
  // window is still open. Before crash epochs, the t=116 recovery revived
  // the host even though the second crash held it down until t=135.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 16.0).ok());  // ends 116
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 105.0, 30.0).ok());  // ends 135
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double between = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                     118.0, 133.0);
  const double after = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   145.0, 195.0);
  EXPECT_LT(between, 0.5) << "host revived by the first crash's stale timer";
  EXPECT_NEAR(after, 2.0, 0.3);
}

TEST(StreamSimulationTest, LaterShorterCrashDoesNotTruncateOutage) {
  // The mirror case: a second, shorter window inside a longer one must not
  // shorten it — windows merge to the furthest end (t=130), they are never
  // replaced.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 30.0).ok());  // ends 130
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 110.0, 5.0).ok());   // ends 115
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double between = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                     117.0, 128.0);
  const double after = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   140.0, 195.0);
  EXPECT_LT(between, 0.5) << "short inner crash truncated the outer window";
  EXPECT_NEAR(after, 2.0, 0.3);
}

TEST(StreamSimulationTest, BackToBackCrashesEachDipAndRecover) {
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 80.0, 10.0).ok());
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 120.0, 10.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double first = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   81.0, 89.0);
  const double middle = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                    100.0, 118.0);
  const double second = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                    121.0, 129.0);
  const double last = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                  140.0, 195.0);
  EXPECT_LT(first, 0.5);
  EXPECT_NEAR(middle, 2.0, 0.4);  // recovered between the two outages
  EXPECT_LT(second, 0.5);
  EXPECT_NEAR(last, 2.0, 0.3);
}

TEST(StreamSimulationTest, CrashDuringResyncRestartsTheOutage) {
  // The second crash lands while the host's replicas are still resyncing
  // from the first recovery: the pending resync must be invalidated and the
  // full outage + resync served again.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 10.0).ok());  // resync 110-110.5
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 110.2, 10.0).ok());  // mid-resync
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double during = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                    112.0, 119.0);
  const double after = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   130.0, 195.0);
  EXPECT_LT(during, 0.5);
  EXPECT_NEAR(after, 2.0, 0.3);
}

TEST(StreamSimulationTest, CrashOfLastAliveReplicaSilencesUntilRecovery) {
  // Overlapping outages of both hosts kill every replica of every PE; the
  // pipeline must go silent (primary = none) and come back once hosts
  // return.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation simulation(f.app, f.cluster, f.placement, sr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 16.0).ok());
  ASSERT_TRUE(simulation.ScheduleHostCrash(1, 105.0, 16.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double blackout = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                      107.0, 115.0);
  const double after = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   130.0, 195.0);
  EXPECT_LT(blackout, 0.5);
  EXPECT_NEAR(after, 2.0, 0.3);
}

TEST(StreamSimulationTest, RecoveryAfterTraceEndIsClean) {
  // The crash window extends past the trace horizon; the run must still
  // terminate and account the pre-crash output.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 90.0, 60.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  const double before = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                    10.0, 49.0);
  EXPECT_NEAR(before, 2.0, 0.3);
  EXPECT_GT(m.sink_tuples, 0u);
  ASSERT_FALSE(m.crashed_hosts.empty());
  EXPECT_EQ(m.crashed_hosts.back(), 0);
}

TEST(StreamSimulationTest, HostRecoveryDoesNotResurrectPermanentFailures) {
  // A worst-case-injected replica lives on a host that crashes and
  // recovers; recovery must not bring the permanently failed replica back.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();  // pe0 replica 0 is the only path
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.InjectPermanentReplicaFailure(f.pe0, 0).ok());
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 10.0, 5.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  EXPECT_EQ(m.pe_processed[f.pe0], 0u);
  EXPECT_EQ(m.sink_tuples, 0u);
}

TEST(StreamSimulationTest, FailoverReelectsAwayFromResyncingPrimary) {
  // The primary's host blips (crash shorter than the failover window) and
  // the replica comes back resyncing. Heartbeat-loss failover fires while
  // it is alive-but-resyncing: the healthy active secondary must be elected
  // instead of the seated replica blocking the PE for its whole resync.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.resync_latency_seconds = 20.0;
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation simulation(f.app, f.cluster, f.placement, sr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 0.5).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // Failover at t=101 elects the host-1 secondaries; output resumes far
  // before the t=120.5 resync completion.
  const double resumed = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                     103.0, 118.0);
  EXPECT_NEAR(resumed, 2.0, 0.4)
      << "resyncing primary blocked re-election of the healthy secondary";
}

TEST(StreamSimulationTest, ResyncingReplicaIsNotElectedPrimary) {
  // Both replicas die; one recovers first but must only take the primary
  // seat after its resync completes, never during it.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.resync_latency_seconds = 10.0;
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation simulation(f.app, f.cluster, f.placement, sr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 16.0).ok());  // back 116
  ASSERT_TRUE(simulation.ScheduleHostCrash(1, 100.0, 2.0).ok());   // back 102
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // Host 1 is up at t=102 but resyncs until t=112: the PE stays silent.
  const double resync_window = SimulationMetrics::MeanRate(
      m.sink_series, m.bucket_seconds, 104.0, 111.0);
  const double after = SimulationMetrics::MeanRate(m.sink_series, m.bucket_seconds,
                                                   114.0, 195.0);
  EXPECT_LT(resync_window, 0.5) << "a resyncing replica processed as primary";
  EXPECT_NEAR(after, 2.0, 0.3);
}

TEST(StreamSimulationTest, ReplicaSeriesRecordsWhenEnabled) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 20.0, 40.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.record_replica_series = true;
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);
  StreamSimulation simulation(f.app, f.cluster, f.placement, sr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  ASSERT_FALSE(m.replica_series.empty());
  double total = 0.0;
  for (double v : m.replica_series[f.pe0][0]) total += v;
  EXPECT_NEAR(total, m.replicas[f.pe0][0].cpu_cycles, 1.0);
}

TEST(StreamSimulationTest, RunIsSingleShot) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 5.0, 10.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  EXPECT_FALSE(simulation.Run().ok());
}


TEST(StreamSimulationTest, LoadSheddingCapsLatencyAtCompletenessCost) {
  // Saturating the SR deployment with and without the shedder: shedding
  // keeps queues short (low latency) while losing more tuples overall.
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 20.0, 140.0);
  ASSERT_TRUE(trace.ok());
  ActivationStrategy sr =
      strategy::MakeStaticReplication(f.app.graph, f.app.input_space, 2);

  RuntimeOptions queues;
  StreamSimulation with_queues(f.app, f.cluster, f.placement, sr, *trace, queues);
  ASSERT_TRUE(with_queues.Run().ok());

  RuntimeOptions shedding;
  shedding.enable_load_shedding = true;
  shedding.shed_threshold = 0.3;
  StreamSimulation with_shedding(f.app, f.cluster, f.placement, sr, *trace, shedding);
  ASSERT_TRUE(with_shedding.Run().ok());

  ASSERT_GT(with_queues.metrics().sink_latency.count(), 0u);
  ASSERT_GT(with_shedding.metrics().sink_latency.count(), 0u);
  EXPECT_LT(with_shedding.metrics().sink_latency.Percentile(99),
            with_queues.metrics().sink_latency.Percentile(99));
  EXPECT_GT(with_shedding.metrics().dropped_tuples,
            with_queues.metrics().dropped_tuples / 2);
  // Throughput during saturation is CPU-bound either way: sink counts stay
  // in the same ballpark.
  EXPECT_NEAR(static_cast<double>(with_shedding.metrics().sink_tuples),
              static_cast<double>(with_queues.metrics().sink_tuples),
              0.25 * static_cast<double>(with_queues.metrics().sink_tuples));
}

TEST(StreamSimulationTest, SheddingIdleBelowThreshold) {
  // An unsaturated run never crosses the shed threshold: zero drops.
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 20.0, 60.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.enable_load_shedding = true;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  EXPECT_EQ(simulation.metrics().dropped_tuples, 0u);
  EXPECT_GE(simulation.metrics().sink_tuples, simulation.metrics().source_tuples - 4);
}

TEST(InputTraceTest, SegmentsAndQueries) {
  auto trace = InputTrace::Alternating(0, 10.0, 1, 5.0, 3);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->segments().size(), 6u);
  EXPECT_DOUBLE_EQ(trace->TotalDuration(), 45.0);
  EXPECT_EQ(trace->ConfigAt(0.0), 0);
  EXPECT_EQ(trace->ConfigAt(12.0), 1);
  EXPECT_EQ(trace->ConfigAt(15.0), 0);
  EXPECT_EQ(trace->ConfigAt(44.9), 1);
  EXPECT_EQ(trace->ConfigAt(100.0), 1);  // past the end -> last segment
  EXPECT_DOUBLE_EQ(trace->TimeIn(1), 15.0);
  EXPECT_DOUBLE_EQ(trace->TimeIn(0), 30.0);
}

TEST(SimulationMetricsTest, MeanRateWeightsBoundaryBucketsByOverlap) {
  // Buckets of 1 s with distinct counts; a window ending mid-bucket must
  // weight the partial bucket by its overlap fraction, not full width.
  const std::vector<double> series = {10.0, 20.0, 30.0, 40.0};
  // [1.0, 2.5): 20 + 30 * 0.5 over 1.5 s. Full-width accounting would give
  // (20 + 30) / 1.5 = 33.33.
  EXPECT_NEAR(SimulationMetrics::MeanRate(series, 1.0, 1.0, 2.5), 35.0 / 1.5, 1e-12);
  // [0.25, 0.75): interior of one bucket — still that bucket's rate.
  EXPECT_NEAR(SimulationMetrics::MeanRate(series, 1.0, 0.25, 0.75), 10.0, 1e-12);
  // [1.5, 3.5): half of bucket 1, all of bucket 2, half of bucket 3.
  EXPECT_NEAR(SimulationMetrics::MeanRate(series, 1.0, 1.5, 3.5),
              (20.0 * 0.5 + 30.0 + 40.0 * 0.5) / 2.0, 1e-12);
  // Bucket-aligned windows are unchanged by the overlap weighting.
  EXPECT_NEAR(SimulationMetrics::MeanRate(series, 1.0, 1.0, 3.0), 25.0, 1e-12);
}

TEST(SimulationMetricsTest, MeanRateClampsWindowToSeriesCoverage) {
  const std::vector<double> series = {10.0, 20.0, 30.0, 40.0};
  // Window reaching past the recorded range: only the covered part counts,
  // and the denominator is the covered duration — not the full window.
  EXPECT_NEAR(SimulationMetrics::MeanRate(series, 1.0, 3.5, 10.0), 40.0, 1e-12);
  EXPECT_NEAR(SimulationMetrics::MeanRate(series, 1.0, -2.0, 1.0), 10.0, 1e-12);
  // Entirely outside the range (or degenerate): zero.
  EXPECT_EQ(SimulationMetrics::MeanRate(series, 1.0, 4.0, 9.0), 0.0);
  EXPECT_EQ(SimulationMetrics::MeanRate(series, 1.0, 2.0, 2.0), 0.0);
  EXPECT_EQ(SimulationMetrics::MeanRate({}, 1.0, 0.0, 1.0), 0.0);
}

TEST(InputTraceTest, SampleEmitsNoDegenerateFinalSegment) {
  model::InputSpace space;
  SourceRateSet r;
  r.source = 0;
  r.rates = {1.0, 2.0};
  r.probabilities = {0.5, 0.5};
  ASSERT_TRUE(space.AddSource(r).ok());
  // 0.1 accumulated 10 times lands at 0.9999999999999999 < 1.0; the FP
  // residue used to become an extra ~1e-16 s segment.
  auto trace = InputTrace::Sample(space, 1.0, 0.1, 7);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->segments().size(), 10u);
  EXPECT_NEAR(trace->TotalDuration(), 1.0, 1e-9);
  for (const TraceSegment& segment : trace->segments()) {
    EXPECT_GT(segment.duration, 1e-6);
  }
  // Also at larger scales, and when total is not a segment multiple (the
  // final partial segment is real, not residue).
  for (const double total : {300.0, 12.34, 60.0}) {
    auto sampled = InputTrace::Sample(space, total, 0.1, 11);
    ASSERT_TRUE(sampled.ok());
    EXPECT_NEAR(sampled->TotalDuration(), total, 1e-6);
    for (const TraceSegment& segment : sampled->segments()) {
      EXPECT_GT(segment.duration, 1e-6);
    }
  }
}

TEST(InputTraceTest, RejectsBadSegments) {
  InputTrace trace;
  EXPECT_FALSE(trace.Append(0.0, 0).ok());
  EXPECT_FALSE(trace.Append(-1.0, 0).ok());
  EXPECT_FALSE(trace.Append(1.0, -1).ok());
  EXPECT_FALSE(InputTrace::Step(0, 1, 10.0, 5.0).ok());
  EXPECT_FALSE(InputTrace::Alternating(0, 1.0, 1, 1.0, 0).ok());
}

// ------------------------------------------------------- loss provenance
//
// Every loss site attributes exactly one LossCause; `Run` already asserts
// ledger/scalar reconciliation on every simulation above, so these tests
// pin down *which* cause each scenario produces and that the causes stay
// mutually exclusive.

TEST(LossProvenanceTest, FailureFreeRunHasEmptyLedgerDespiteIgnoredTuples) {
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // The deactivated replicas discard every offered tuple, but a discard the
  // strategy planned is not a loss: the ledger stays empty.
  uint64_t ignored = 0;
  for (const auto& per_pe : m.replicas) {
    for (const ReplicaMetrics& r : per_pe) ignored += r.tuples_ignored;
  }
  EXPECT_GT(ignored, 0u);
  EXPECT_TRUE(m.losses.empty());
  EXPECT_EQ(m.LostTuples(), 0u);
}

TEST(LossProvenanceTest, HostCrashAttributesCrashLossAndResyncGap) {
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 16.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  // 16 s outage at ~2 t/s feeds the dead replica of pe0 directly; after
  // recovery the replica resyncs for 0.5 s and loses that input too.
  EXPECT_GT(m.crash_lost_tuples, 0u);
  EXPECT_GT(m.resync_lost_tuples, 0u);
  EXPECT_EQ(m.losses.TotalOf(obs::LossCause::kCrashLoss), m.crash_lost_tuples);
  EXPECT_EQ(m.losses.TotalOf(obs::LossCause::kResyncGap), m.resync_lost_tuples);
  EXPECT_EQ(m.losses.Total(), m.LostTuples());
  // The crash loss lands on the PEs, attributed to each one's dead copy.
  EXPECT_GT(m.losses.Count(f.pe0, obs::LossCause::kCrashLoss), 0u);
}

TEST(LossProvenanceTest, OrphanedOutputsDuringFailoverWindow) {
  Fixture f(/*low=*/2.0, /*high=*/4.0);
  auto trace = InputTrace::Step(0, 1, 200.0, 300.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  // Both replicas of both PEs active: when host 0 (holding the seated
  // primaries) crashes, the host-1 secondaries keep finishing tuples whose
  // outputs are suppressed with no primary copy to forward — orphans —
  // until the 1 s failover window elects them.
  ActivationStrategy all_active(f.app.graph.num_components(), 2,
                                f.app.input_space.num_configs());
  StreamSimulation simulation(f.app, f.cluster, f.placement, all_active, *trace,
                              options);
  ASSERT_TRUE(simulation.ScheduleHostCrash(0, 100.0, 16.0).ok());
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  EXPECT_GT(m.orphaned_tuples, 0u);
  EXPECT_EQ(m.losses.TotalOf(obs::LossCause::kOrphanedOutput), m.orphaned_tuples);
  // Orphans are bounded by the failover window: roughly rate × latency per
  // affected PE, nowhere near the full outage's losses.
  EXPECT_LT(m.orphaned_tuples, 20u);
  EXPECT_EQ(m.losses.Total(), m.LostTuples());
}

TEST(LossProvenanceTest, FailureFreeAllActiveRunStaysOrphanFree) {
  // In failure-free runs the seated primary is serviceable whenever any
  // secondary finishes a tuple, so the orphan path must never fire — this
  // is what keeps failure-free traces byte-identical to the pre-forensics
  // goldens.
  Fixture f;
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  ActivationStrategy all_active(f.app.graph.num_components(), 2,
                                f.app.input_space.num_configs());
  StreamSimulation simulation(f.app, f.cluster, f.placement, all_active, *trace,
                              options);
  ASSERT_TRUE(simulation.Run().ok());
  EXPECT_EQ(simulation.metrics().orphaned_tuples, 0u);
  EXPECT_EQ(simulation.metrics().crash_lost_tuples, 0u);
}

TEST(LossProvenanceTest, OverflowAndShedAreMutuallyExclusive) {
  // Overload pe0 (10 t/s against a 0.1 s/tuple budget) with shedding on:
  // the shedder discards a deterministic fraction above the threshold and
  // the tail drop catches the rest. The two tallies must partition
  // `dropped_tuples` exactly.
  Fixture f(/*low=*/10.0, /*high=*/12.0);
  auto trace = InputTrace::Step(0, 1, 50.0, 100.0);
  ASSERT_TRUE(trace.ok());
  RuntimeOptions options;
  options.enable_load_shedding = true;
  options.shed_threshold = 0.5;
  ActivationStrategy nr = f.SingleReplica();
  StreamSimulation simulation(f.app, f.cluster, f.placement, nr, *trace, options);
  ASSERT_TRUE(simulation.Run().ok());
  const SimulationMetrics& m = simulation.metrics();
  EXPECT_GT(m.dropped_tuples, 0u);
  EXPECT_GT(m.shed_tuples, 0u);
  EXPECT_LE(m.shed_tuples, m.dropped_tuples);
  EXPECT_EQ(m.losses.TotalOf(obs::LossCause::kLoadShed), m.shed_tuples);
  EXPECT_EQ(m.losses.TotalOf(obs::LossCause::kQueueOverflow),
            m.dropped_tuples - m.shed_tuples);
  EXPECT_EQ(m.crash_lost_tuples, 0u);
  EXPECT_EQ(m.orphaned_tuples, 0u);
  EXPECT_EQ(m.losses.Total(), m.LostTuples());
}

TEST(InputTraceTest, ImprintProbabilitiesMatchesOccupancy) {
  model::InputSpace space;
  SourceRateSet r;
  r.source = 0;
  r.rates = {1.0, 2.0};
  r.probabilities = {0.5, 0.5};
  ASSERT_TRUE(space.AddSource(r).ok());
  auto trace = InputTrace::Alternating(0, 20.0, 1, 10.0, 2);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->ImprintProbabilities(&space).ok());
  EXPECT_NEAR(space.Probability(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(space.Probability(1), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace laar::dsps
