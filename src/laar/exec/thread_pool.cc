#include "laar/exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace laar {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (shutdown_ && queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Every thread claims indices from one counter, the caller too, so the
  // loop completes even if no helper ever starts. The state is shared with
  // the helpers: one that starts after the loop returned finds every index
  // claimed and touches nothing else.
  struct Loop {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable finished;
    size_t done = 0;  // calls that have returned
  };
  auto loop = std::make_shared<Loop>();
  auto drain = [loop, n, &fn] {
    size_t ran = 0;
    for (size_t i; (i = loop->next.fetch_add(1)) < n; ++ran) fn(i);
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->done += ran;
    if (loop->done == n) loop->finished.notify_all();
  };
  const size_t helpers = std::min(n - 1, num_threads());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t t = 0; t < helpers; ++t) queue_.emplace_back(drain);
  }
  for (size_t t = 0; t < helpers; ++t) work_available_.notify_one();
  drain();
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->finished.wait(lock, [&loop, n] { return loop->done == n; });
}

}  // namespace laar
