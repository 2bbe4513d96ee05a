#include "laar/exec/shard_runner.h"

#include <algorithm>
#include <utility>

#include "laar/common/stopwatch.h"

namespace laar::exec {
namespace {

/// How often an idle worker, or the waiting coordinator, polls before it
/// parks.
constexpr int kSpinIterations = 1 << 12;

/// Waits until `ready()`: a bounded spin, then parks on `cv`. Whoever makes
/// `ready()` true does so (or notifies) under `mutex`, so no wake-up is lost.
template <typename Ready>
void SpinThenPark(std::mutex& mutex, std::condition_variable& cv, Ready ready) {
  for (int spins = 1; !ready(); ++spins) {
    if (spins >= kSpinIterations) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, ready);
      return;
    }
    std::this_thread::yield();
  }
}

}  // namespace

ShardRunner::ShardRunner(int shards, const Options& options)
    : shards_(std::max(shards, 1)),
      execute_seconds_(static_cast<size_t>(shards_), 0.0) {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  executors_ = std::clamp(options.workers > 0 ? options.workers : hardware, 1, shards_);
  for (int e = 1; e < executors_; ++e) {
    workers_.emplace_back([this, e] { WorkerLoop(e); });
  }
}

ShardRunner::~ShardRunner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
    wake_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ShardRunner::set_phase_observer(PhaseObserver observer) {
  observer_ = std::move(observer);
  timing_ = static_cast<bool>(observer_);
}

void ShardRunner::RunShards(int executor, const std::function<void(int)>& fn,
                            bool timed) {
  for (int shard = executor; shard < shards_; shard += executors_) {
    if (!timed) {
      fn(shard);
      continue;
    }
    Stopwatch watch;
    fn(shard);
    execute_seconds_[static_cast<size_t>(shard)] = watch.ElapsedSeconds();
  }
}

void ShardRunner::RunPhase(const std::function<void(int)>& fn) {
  const bool timed = timing_;
  Stopwatch watch;  // started before dispatch: every worker interval nests
  if (!workers_.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    timed_ = timed;
    countdown_.store(executors_ - 1, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    wake_cv_.notify_all();
  }
  RunShards(0, fn, timed);
  SpinThenPark(mutex_, done_cv_, [this] {
    return countdown_.load(std::memory_order_acquire) == 0;
  });
  if (!timed) return;
  // A one-shard phase is its shard's call: one measurement serves as both,
  // and the stall is exactly zero.
  observer_(shards_ == 1 ? execute_seconds_[0] : watch.ElapsedSeconds(),
            execute_seconds_);
}

void ShardRunner::WorkerLoop(int executor) {
  // The coordinator bumps the generation only after every worker counted
  // down, so the phase after `seen` is always generation `seen + 1`.
  for (uint64_t seen = 0;; ++seen) {
    SpinThenPark(mutex_, wake_cv_, [this, seen] {
      return stopping_.load(std::memory_order_acquire) ||
             generation_.load(std::memory_order_acquire) != seen;
    });
    if (stopping_.load(std::memory_order_acquire)) return;
    RunShards(executor, *fn_, timed_);
    if (countdown_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);  // the coordinator may park
      done_cv_.notify_one();
    }
  }
}

}  // namespace laar::exec
