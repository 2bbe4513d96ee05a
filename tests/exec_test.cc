#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "laar/exec/parallel.h"
#include "laar/exec/shard_runner.h"
#include "laar/exec/thread_pool.h"

namespace laar {
namespace {

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 257;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&visits](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForTest, HandlesEmptyAndSingleRanges) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&count](size_t i) {
    EXPECT_EQ(i, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, SafeToNestInsideParallelFor) {
  // An inner ParallelFor issued from inside an outer one must complete even
  // when every worker is occupied by the outer loop: its caller works
  // through the indices itself.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.ParallelFor(4, [&pool, &inner](size_t) {
    pool.ParallelFor(16, [&inner](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 4 * 16);
}

TEST(ParallelForTest, LateHelpersNeverTouchAFinishedLoop) {
  // ParallelFor returns once its calls have finished, without waiting for
  // queued helpers to start, so a helper may run after its loop's function
  // and counter are gone. Thousands of short loops over short-lived locals,
  // then pools destroyed right after a loop, must run every index exactly
  // once (run under -DLAAR_SANITIZE=address or thread to check the
  // lifetimes).
  ThreadPool pool(4);
  for (int round = 0; round < 5000; ++round) {
    std::vector<int> visits(3, 0);
    pool.ParallelFor(visits.size(), [&visits](size_t i) { ++visits[i]; });
    ASSERT_EQ(visits, std::vector<int>(3, 1)) << "round " << round;
  }
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    {
      ThreadPool short_lived(2);
      short_lived.ParallelFor(4, [&count](size_t) { count.fetch_add(1); });
    }
    ASSERT_EQ(count.load(), 4) << "round " << round;
  }
}

TEST(ResolveJobsTest, MapsZeroToHardwareConcurrency) {
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(7), 7);
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_EQ(ResolveJobs(-3), ResolveJobs(0));
}

std::optional<int> SquareUsableProbe(uint64_t seed) {
  // Seeds divisible by 3 are "unusable".
  if (seed % 3 == 0) return std::nullopt;
  return static_cast<int>(seed * seed);
}

TEST(CollectUsableSeedsTest, SerialKeepsFirstUsableSeedsInOrder) {
  int skipped = -1;
  const auto kept = CollectUsableSeeds<int>(4, 0, 1, 100, SquareUsableProbe, {},
                                            nullptr, &skipped);
  ASSERT_EQ(kept.size(), 4u);
  // Seeds 1,2,4,5 are usable; 3 is skipped.
  EXPECT_EQ(kept[0].seed, 1u);
  EXPECT_EQ(kept[1].seed, 2u);
  EXPECT_EQ(kept[2].seed, 4u);
  EXPECT_EQ(kept[3].seed, 5u);
  EXPECT_EQ(kept[2].value, 16);
  EXPECT_EQ(skipped, 1);
}

TEST(CollectUsableSeedsTest, ParallelMatchesSerialIncludingSkips) {
  for (int num : {1, 3, 10, 64}) {
    int serial_skipped = -1;
    const auto serial = CollectUsableSeeds<int>(num, 100, 1, 1000, SquareUsableProbe,
                                                {}, nullptr, &serial_skipped);
    for (int jobs : {2, 4, 8}) {
      int parallel_skipped = -1;
      const auto parallel =
          CollectUsableSeeds<int>(num, 100, jobs, 1000, SquareUsableProbe, {}, nullptr,
                                  &parallel_skipped);
      ASSERT_EQ(parallel.size(), serial.size()) << "num=" << num << " jobs=" << jobs;
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].seed, serial[i].seed);
        EXPECT_EQ(parallel[i].value, serial[i].value);
      }
      EXPECT_EQ(parallel_skipped, serial_skipped) << "num=" << num << " jobs=" << jobs;
    }
  }
}

TEST(CollectUsableSeedsTest, ParallelStopsAtSkipLimitLikeSerial) {
  // Every seed unusable: both paths must give up after exactly max_skips
  // probes counted, returning nothing.
  const auto probe = [](uint64_t) -> std::optional<int> { return std::nullopt; };
  for (int jobs : {1, 4}) {
    int skipped = -1;
    const auto kept = CollectUsableSeeds<int>(5, 0, jobs, 17, probe, {}, nullptr,
                                              &skipped);
    EXPECT_TRUE(kept.empty()) << "jobs=" << jobs;
    EXPECT_EQ(skipped, 17) << "jobs=" << jobs;
  }
}

TEST(CollectUsableSeedsTest, OnAcceptFiresInSeedOrder) {
  std::vector<uint64_t> order;
  CollectUsableSeeds<int>(
      6, 0, 4, 100, SquareUsableProbe,
      [&order](size_t index, const SeedProbe<int>& probe) {
        EXPECT_EQ(index, order.size());
        order.push_back(probe.seed);
      });
  ASSERT_EQ(order.size(), 6u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(CollectUsableSeedsTest, ProbesRunOnAtMostJobsThreads) {
  // `jobs` counts the calling thread: a private pool adds `jobs - 1`
  // workers, not `jobs`.
  for (int jobs : {2, 4}) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    const auto kept = CollectUsableSeeds<int>(
        24, 0, jobs, 1000, [&](uint64_t seed) -> std::optional<int> {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          {
            std::lock_guard<std::mutex> lock(mu);
            threads.insert(std::this_thread::get_id());
          }
          return SquareUsableProbe(seed);
        });
    EXPECT_EQ(kept.size(), 24u);
    EXPECT_LE(threads.size(), static_cast<size_t>(jobs)) << "jobs=" << jobs;
  }
}

TEST(CollectUsableSeedsTest, ProbesAtMostJobsMinusOneSeedsPastTheCutOff) {
  // The serial run's last probed seed is the cut-off. A parallel run may
  // probe a few seeds past it speculatively, but never `jobs` or more —
  // not even when the cut-off seed itself is slow and the other threads
  // are free to run ahead.
  struct Case {
    int num;
    int max_skips;
    std::optional<int> (*probe)(uint64_t);
  };
  const Case cases[] = {
      {1, 1000, SquareUsableProbe},
      {5, 1000, SquareUsableProbe},
      {20, 1000, SquareUsableProbe},
      {5, 4, [](uint64_t) -> std::optional<int> { return std::nullopt; }},
  };
  for (const Case& c : cases) {
    uint64_t cutoff = 0;
    CollectUsableSeeds<int>(c.num, 0, 1, c.max_skips, [&](uint64_t seed) {
      cutoff = seed;
      return c.probe(seed);
    });
    for (int jobs : {2, 4, 8}) {
      std::mutex mu;
      std::vector<uint64_t> past;
      CollectUsableSeeds<int>(c.num, 0, jobs, c.max_skips, [&](uint64_t seed) {
        if (seed == cutoff) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (seed > cutoff) {
          std::lock_guard<std::mutex> lock(mu);
          past.push_back(seed);
        }
        return c.probe(seed);
      });
      EXPECT_LE(past.size(), static_cast<size_t>(jobs - 1))
          << "num=" << c.num << " max_skips=" << c.max_skips << " jobs=" << jobs;
    }
  }
}

TEST(CollectUsableSeedsTest, SharesCallerPool) {
  ThreadPool pool(3);
  const auto kept = CollectUsableSeeds<int>(8, 0, 3, 100, SquareUsableProbe, {}, &pool);
  EXPECT_EQ(kept.size(), 8u);
}

TEST(ShardRunnerTest, EveryShardRunsOncePerPhase) {
  exec::ShardRunner runner(4);
  EXPECT_EQ(runner.shards(), 4);
  std::vector<int> calls(4, 0);
  for (int phase = 0; phase < 50; ++phase) {
    runner.RunPhase([&calls](int shard) { calls[static_cast<size_t>(shard)]++; });
  }
  for (int shard = 0; shard < 4; ++shard) EXPECT_EQ(calls[static_cast<size_t>(shard)], 50);
}

TEST(ShardRunnerTest, RunPhaseIsABarrier) {
  // Writes from phase n must be visible to phase n+1 on every shard, with
  // no synchronization beyond RunPhase itself. Three executors even on a
  // 1- or 2-core machine, so TSan always sees worker threads.
  exec::ShardRunner::Options options;
  options.workers = 3;
  exec::ShardRunner runner(3, options);
  std::vector<uint64_t> counters(3, 0);
  for (int phase = 0; phase < 100; ++phase) {
    uint64_t total = 0;
    for (uint64_t c : counters) total += c;  // caller reads between phases
    const uint64_t expected = static_cast<uint64_t>(phase) * 3;
    EXPECT_EQ(total, expected);
    runner.RunPhase([&counters](int shard) { counters[static_cast<size_t>(shard)]++; });
  }
}

TEST(ShardRunnerTest, SingleShardRunsInlineOnCallerThread) {
  exec::ShardRunner runner(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  runner.RunPhase([&ran_on](int shard) {
    EXPECT_EQ(shard, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ShardRunnerTest, ClampsShardCountToAtLeastOne) {
  exec::ShardRunner runner(0);
  EXPECT_EQ(runner.shards(), 1);
  int calls = 0;
  runner.RunPhase([&calls](int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ShardRunnerTest, DestructorJoinsIdleWorkers) {
  { exec::ShardRunner runner(8); }  // must not hang or leak threads
  SUCCEED();
}

TEST(ShardRunnerTest, MoreShardsThanHardwareThreads) {
  // Oversubscription must degrade to slower phases, never to deadlock or
  // missed shards.
  const int shards =
      2 * static_cast<int>(std::thread::hardware_concurrency()) + 4;
  exec::ShardRunner runner(shards);
  std::vector<int> calls(static_cast<size_t>(shards), 0);
  for (int phase = 0; phase < 20; ++phase) {
    runner.RunPhase([&calls](int shard) { calls[static_cast<size_t>(shard)]++; });
  }
  for (int shard = 0; shard < shards; ++shard) {
    EXPECT_EQ(calls[static_cast<size_t>(shard)], 20) << "shard " << shard;
  }
}

TEST(ShardRunnerTest, EmptyPhaseChurnIsCheap) {
  // The windowed engine runs one phase per conservative window even when
  // every shard is idle; tens of thousands of no-op phases must complete
  // promptly (this test hanging or timing out IS the failure signal).
  exec::ShardRunner runner(4);
  for (int phase = 0; phase < 20000; ++phase) {
    runner.RunPhase([](int) {});
  }
  SUCCEED();
}

TEST(ShardRunnerTest, PhaseObserverFiresOncePerPhaseWithNestedTimings) {
  exec::ShardRunner::Options options;
  options.workers = 3;  // real worker threads on any machine
  exec::ShardRunner runner(3, options);
  int observations = 0;
  runner.set_phase_observer(
      [&observations](double phase_seconds, const std::vector<double>& execute) {
        ++observations;
        ASSERT_EQ(execute.size(), 3u);
        EXPECT_GE(phase_seconds, 0.0);
        for (double seconds : execute) {
          // Worker intervals nest inside the coordinator's phase interval,
          // so per-shard execute time never exceeds it: stall >= 0.
          EXPECT_GE(seconds, 0.0);
          EXPECT_LE(seconds, phase_seconds);
        }
      });
  const int phases = 200;
  for (int phase = 0; phase < phases; ++phase) {
    runner.RunPhase([](int) {});
  }
  EXPECT_EQ(observations, phases);
}

TEST(ShardRunnerTest, SingleShardObserverReportsZeroStall) {
  // Inline execution: the one shard's measurement IS the phase measurement,
  // so the implied stall is exactly zero.
  exec::ShardRunner runner(1);
  int observations = 0;
  runner.set_phase_observer(
      [&observations](double phase_seconds, const std::vector<double>& execute) {
        ++observations;
        ASSERT_EQ(execute.size(), 1u);
        EXPECT_EQ(execute[0], phase_seconds);
      });
  for (int phase = 0; phase < 10; ++phase) {
    runner.RunPhase([](int) {});
  }
  EXPECT_EQ(observations, 10);
}

TEST(ShardRunnerTest, EmptyObserverDisablesTiming) {
  exec::ShardRunner runner(2);
  int observations = 0;
  runner.set_phase_observer(
      [&observations](double, const std::vector<double>&) { ++observations; });
  runner.RunPhase([](int) {});
  EXPECT_EQ(observations, 1);
  runner.set_phase_observer({});
  runner.RunPhase([](int) {});
  EXPECT_EQ(observations, 1);
}

TEST(ShardRunnerTest, StressOversubscribedPhases) {
  // Eight executors on fewer cores, and every 4000th phase a pause longer
  // than the bounded spin on each side: first the coordinator idles (the
  // workers park), then shard 7's worker does (the coordinator parks). A
  // worker running a phase twice, or missing one, breaks the exact
  // per-shard counts; a lost wake-up hangs the run — this test hanging or
  // timing out IS the failure signal.
  exec::ShardRunner::Options options;
  options.workers = 8;
  exec::ShardRunner runner(8, options);
  ASSERT_EQ(runner.workers(), 8);
  std::vector<int> calls(8, 0);
  constexpr int kPhases = 40000;
  constexpr auto kPause = std::chrono::milliseconds(20);
  for (int phase = 0; phase < kPhases; ++phase) {
    const bool pause = phase % 4000 == 0;
    if (pause) std::this_thread::sleep_for(kPause);
    runner.RunPhase([&calls, phase, pause, kPause](int shard) {
      if (pause && shard == 7) std::this_thread::sleep_for(kPause);
      int& count = calls[static_cast<size_t>(shard)];
      if (count != phase) ADD_FAILURE() << "shard " << shard << " phase " << phase;
      ++count;
    });
  }
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(calls[static_cast<size_t>(shard)], kPhases) << "shard " << shard;
  }
}

TEST(ShardRunnerTest, WorkersOptionCapsExecutors) {
  exec::ShardRunner::Options options;
  options.workers = 1;
  exec::ShardRunner capped(8, options);
  // One executor: fully inline, no worker thread, but every shard still
  // runs — the hardware_concurrency clamp on a small machine degrades to
  // exactly this configuration.
  EXPECT_EQ(capped.workers(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> calls(8, 0);
  capped.RunPhase([&calls, caller](int shard) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls[static_cast<size_t>(shard)]++;
  });
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(calls[static_cast<size_t>(shard)], 1);
  }
}

TEST(ShardRunnerTest, ExecutorsNeverExceedShards) {
  exec::ShardRunner::Options options;
  options.workers = 64;
  exec::ShardRunner runner(2, options);
  EXPECT_EQ(runner.workers(), 2);
  exec::ShardRunner single(1, options);
  EXPECT_EQ(single.workers(), 1);
}

}  // namespace
}  // namespace laar
