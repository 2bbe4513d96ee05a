#ifndef LAAR_EXEC_THREAD_POOL_H_
#define LAAR_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace laar {

/// A fixed set of worker threads that run `ParallelFor` loops.
///
/// LAAR uses it to fan out the §5.3 experiment corpus (`runtime::RunCorpus`:
/// seed probes, then one simulation per (app, variant, scenario)) and the
/// search-study benches, each task a serial FT-Search or simulation. This
/// corpus-level parallelism stands in for the paper's Fork/Join split of a
/// single search (§4.5).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1; 0 means hardware concurrency).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `fn(0) .. fn(n - 1)` on the calling thread plus up to
  /// min(n - 1, num_threads()) workers, and returns once all n calls have
  /// finished. It does not wait for the workers to join in: the caller
  /// works through the indices itself, so the call completes even when
  /// every worker is busy, and it is safe to invoke from inside another
  /// `ParallelFor` (nested loops share the workers instead of
  /// oversubscribing).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

}  // namespace laar

#endif  // LAAR_EXEC_THREAD_POOL_H_
