// Proves the engine's memory discipline by replacing the global operator
// new/delete family for this binary:
//  - SimAllocTest: after warm-up, a sustained schedule / fire / cancel /
//    reschedule churn performs no heap allocations at all. The counter only
//    runs inside the measured region, so gtest and runtime setup noise is
//    excluded.
//  - StreamMemoryTest: a stream simulation holds only the tuples in flight.
//    Every block is accounted at its malloc_usable_size on allocation and
//    free, and the peak of the live balance over a Build + Run follows the
//    backlog, not the run length or the queue bound.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/dsps/runtime_options.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/runtime/experiment.h"
#include "laar/sim/simulator.h"
#include "laar/strategy/baselines.h"

namespace {
uint64_t g_allocations = 0;
bool g_counting = false;

// Live heap bytes and their high-water mark. Atomic because the sharded
// engine allocates from its worker threads.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* Track(void* ptr) {
  const auto size = static_cast<int64_t>(malloc_usable_size(ptr));
  const int64_t live = g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return ptr;
}

void Release(void* ptr) noexcept {
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(ptr)),
                         std::memory_order_relaxed);
  std::free(ptr);
}

void* CountedAlloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  void* ptr = std::malloc(size != 0 ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return Track(ptr);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return Track(ptr);
}

/// Peak live heap bytes above the level at entry, over one call of `fn`.
template <typename Fn>
int64_t PeakLiveBytesOf(Fn&& fn) {
  const int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  fn();
  return g_peak_bytes.load() - base;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { Release(ptr); }
void operator delete[](void* ptr) noexcept { Release(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { Release(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { Release(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { Release(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { Release(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  Release(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  Release(ptr);
}

namespace laar::sim {
namespace {

constexpr int kWorkingSet = 128;

// One churn round at a fixed working-set size: schedule kWorkingSet
// events, reschedule a quarter, cancel a quarter, fire the rest. All
// lambdas are small and trivially copyable, so they ride the inline path.
void ChurnRound(Simulator* simulator, std::vector<EventId>* ids,
                uint64_t* fired) {
  ids->clear();
  for (int i = 0; i < kWorkingSet; ++i) {
    ids->push_back(simulator->ScheduleAfter(0.001 * (i + 1),
                                            [fired] { ++*fired; }));
  }
  for (size_t i = 0; i < ids->size(); i += 4) {
    simulator->Reschedule((*ids)[i], simulator->now() + 0.5);
  }
  for (size_t i = 1; i < ids->size(); i += 4) {
    simulator->Cancel((*ids)[i]);
  }
  simulator->Run();
}

TEST(SimAllocTest, SteadyStateChurnPerformsZeroHeapAllocations) {
  Simulator simulator;
  uint64_t fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kWorkingSet);

  // Warm-up: grow the slot pool and heap array to the peak working set.
  for (int round = 0; round < 4; ++round) {
    ChurnRound(&simulator, &ids, &fired);
  }

  const size_t pool_before = simulator.pool_slots();
  g_allocations = 0;
  g_counting = true;
  for (int round = 0; round < 800; ++round) {  // ~100k engine operations
    ChurnRound(&simulator, &ids, &fired);
  }
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(simulator.pool_slots(), pool_before);
  EXPECT_EQ(simulator.stats().boxed_callbacks, 0u);
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

// The boxing fallback must still allocate exactly one box per oversize
// payload — the counter sees it, which doubles as a self-test that the
// instrumentation is live.
TEST(SimAllocTest, OversizePayloadsAllocateExactlyTheirBox) {
  Simulator simulator;
  struct Big {
    char bytes[EventCallback::kInlineBytes + 8] = {};
  };
  Big big;
  // Warm up the slot pool and heap array so only the box itself counts.
  simulator.ScheduleAt(0.5, [] {});
  simulator.Run();
  g_allocations = 0;
  g_counting = true;
  simulator.ScheduleAt(1.0, [big] { (void)big; });
  g_counting = false;
  EXPECT_EQ(g_allocations, 1u);
  EXPECT_EQ(simulator.stats().boxed_callbacks, 1u);
  simulator.Run();
}

}  // namespace
}  // namespace laar::sim

namespace laar::dsps {
namespace {

/// A generated 48-PE, 12-host application under static replication (every
/// replica active, so the High configuration overloads the busiest host).
class StreamMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    appgen::GeneratorOptions generator;
    generator.num_pes = 48;
    generator.num_hosts = 12;
    auto app = appgen::GenerateApplication(generator, /*seed=*/3);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    app_ = std::move(*app);
  }

  /// The experiment trace shape with one Low/High cycle per 10 s, so runs
  /// of different length repeat the same backlog pattern.
  InputTrace ExperimentTrace(double seconds) const {
    auto trace = runtime::MakeExperimentTrace(app_.descriptor.input_space, seconds,
                                              1.0 / 3.0, static_cast<int>(seconds / 10.0));
    EXPECT_TRUE(trace.ok());
    return *trace;
  }

  /// Peak live heap bytes of one Build + Run.
  int64_t PeakRunBytes(const InputTrace& trace, const RuntimeOptions& options) const {
    const strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
        app_.descriptor.graph, app_.descriptor.input_space, 2);
    return PeakLiveBytesOf([&] {
      StreamSimulation simulation(app_.descriptor, app_.cluster, app_.placement, sr,
                                  trace, options);
      EXPECT_TRUE(simulation.Run().ok());
    });
  }

  appgen::GeneratedApplication app_;
};

// The windowed engine's due buckets, segment pool and sink queue hold only
// messages in flight: quadrupling the run length must not quadruple them.
TEST_F(StreamMemoryTest, WindowedBuffersDoNotGrowWithRunLength) {
  RuntimeOptions options;
  options.link_latency_seconds = 0.005;
  options.record_latency = false;  // latency samples are output, kept per tuple
  for (int shards : {1, 2}) {
    options.shards = shards;
    const int64_t short_run = PeakRunBytes(ExperimentTrace(30.0), options);
    const int64_t long_run = PeakRunBytes(ExperimentTrace(120.0), options);
    EXPECT_LT(long_run, short_run * 3 / 2)
        << "shards=" << shards << ": peak live heap " << short_run << " B at 30 s, "
        << long_run << " B at 120 s";
  }
}

// Tuple rings grow to the backlog a run actually builds. Without overload
// the backlog does not depend on the queue bound, so neither may the heap.
TEST_F(StreamMemoryTest, TupleRingsFollowTheBacklogNotTheQueueBound) {
  InputTrace low_only;
  ASSERT_TRUE(low_only.Append(60.0, /*config=*/0).ok());
  RuntimeOptions options;  // inline engine
  options.record_latency = false;
  options.queue_seconds = 2.0;
  const int64_t tight = PeakRunBytes(low_only, options);
  options.queue_seconds = 20.0;
  const int64_t loose = PeakRunBytes(low_only, options);
  EXPECT_LE(std::max(tight, loose), std::min(tight, loose) * 5 / 4)
      << "peak live heap " << tight << " B at queue_seconds 2, " << loose
      << " B at queue_seconds 20";
}

}  // namespace
}  // namespace laar::dsps
