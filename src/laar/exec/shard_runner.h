#ifndef LAAR_EXEC_SHARD_RUNNER_H_
#define LAAR_EXEC_SHARD_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace laar::exec {

/// A fixed crew of worker threads for phase-synchronous execution:
/// `RunPhase(fn)` runs `fn(0) ... fn(shards-1)` concurrently and returns once
/// all of them finished, with everything the workers wrote visible to the
/// caller and everything the caller wrote before visible to the workers.
/// Workers persist across phases, so tens of thousands of conservative
/// windows pay thread creation once.
///
/// Executor `e` runs shards `e, e+E, ...`; the calling thread is executor 0.
/// A phase is one bump of a generation counter by the coordinator and one
/// countdown the workers decrement; both sides spin a bounded number of
/// times before parking on a condition variable. The coordinator waits for
/// every worker before its next bump, so no worker can fall a phase behind.
///
/// There are `min(shards, Options::workers)` executors, 0 meaning the
/// hardware concurrency. One executor spawns no thread, so one shard runs
/// single-threaded: the byte-identity reference for sharded runs.
class ShardRunner {
 public:
  struct Options {
    int workers = 0;  ///< executor cap, caller included; 0 = hardware threads
  };

  explicit ShardRunner(int shards) : ShardRunner(shards, Options{}) {}
  ShardRunner(int shards, const Options& options);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  int shards() const { return shards_; }
  /// Effective executor count, calling thread included (1 = fully inline).
  int workers() const { return executors_; }

  /// Wall-clock of one phase, reported from inside `RunPhase` on the calling
  /// thread: the coordinator's whole phase and each shard's time inside
  /// `fn`. Shard intervals nest inside the phase, so with several executors
  /// `phase - execute[s] >= 0` is shard `s`'s barrier stall; one shard
  /// reports `execute[0] == phase`. With one executor a phase is a serial
  /// sweep and `phase - execute[s]` is the other shards' time, not stall.
  using PhaseObserver = std::function<void(
      double phase_seconds, const std::vector<double>& execute_seconds)>;

  /// Installs the per-phase observer (empty = no timing), between phases.
  void set_phase_observer(PhaseObserver observer);

  /// Runs `fn(shard)` on every shard and blocks until all calls return.
  /// `fn` must not call `RunPhase` reentrantly.
  void RunPhase(const std::function<void(int)>& fn);

 private:
  void WorkerLoop(int executor);
  void RunShards(int executor, const std::function<void(int)>& fn, bool timed);

  const int shards_;
  int executors_ = 1;
  std::vector<std::thread> workers_;

  // The phase in flight, written under `mutex_` before `generation_` moves.
  const std::function<void(int)>* fn_ = nullptr;
  bool timed_ = false;

  std::atomic<uint64_t> generation_{0};
  std::atomic<int> countdown_{0};  ///< workers still running this phase
  std::atomic<bool> stopping_{false};

  std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers park here between phases
  std::condition_variable done_cv_;  ///< coordinator parks here mid-phase

  PhaseObserver observer_;
  bool timing_ = false;
  /// [shard] execute time of this phase: written before the owner's acq_rel
  /// countdown decrement, read by the coordinator once it reaches zero.
  std::vector<double> execute_seconds_;
};

}  // namespace laar::exec

#endif  // LAAR_EXEC_SHARD_RUNNER_H_
