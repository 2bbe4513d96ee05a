#ifndef LAAR_EXEC_PARALLEL_H_
#define LAAR_EXEC_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "laar/exec/thread_pool.h"

namespace laar {

/// One accepted probe of `CollectUsableSeeds`.
template <typename T>
struct SeedProbe {
  uint64_t seed = 0;
  T value;
};

/// Resolves a `--jobs`-style thread count: 0 means hardware concurrency,
/// anything else is clamped to at least 1.
inline int ResolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Probes seeds `seed_base + 1`, `seed_base + 2`, ... with `probe` until
/// `num` usable values (non-nullopt results) have been collected, or
/// `max_skips` seeds turned out unusable. This is the corpus idiom of the
/// paper's §5.3 evaluation: unusable instances (e.g. FT-Search proves some
/// L.x infeasible) are skipped; the kept ones are returned in seed order.
///
/// With `jobs > 1` (0 = hardware concurrency) `jobs` threads in all probe
/// over `pool` (or a private pool of `jobs - 1` workers plus the calling
/// thread when `pool` is null). Each thread claims the next seed as soon as
/// it is free — there is no batch barrier — and hands the result to an
/// in-order accept/skip walk, which stops further claims at exactly the
/// seed the serial run stops at. A seed is claimed only while the cut-off
/// cannot lie `jobs` or more seeds before it, so at most `jobs - 1` seeds
/// past the cut-off are ever probed; their results are discarded. The
/// returned vector is bit-identical to a `jobs = 1` run provided `probe` is
/// deterministic per seed and thread-safe.
///
/// `on_accept(index, probe)` fires in seed order as results are kept (for
/// progress logging); with `jobs > 1` it runs on a probing thread, under the
/// walk's lock. `skipped_out`, when set, receives the number of unusable
/// seeds before the cut-off.
template <typename T>
std::vector<SeedProbe<T>> CollectUsableSeeds(
    int num, uint64_t seed_base, int jobs, int max_skips,
    const std::function<std::optional<T>(uint64_t)>& probe,
    const std::function<void(size_t, const SeedProbe<T>&)>& on_accept = {},
    ThreadPool* pool = nullptr, int* skipped_out = nullptr) {
  std::vector<SeedProbe<T>> out;
  if (skipped_out != nullptr) *skipped_out = 0;
  if (num <= 0) return out;
  out.reserve(static_cast<size_t>(num));
  int skipped = 0;
  const int effective_jobs = ResolveJobs(jobs);

  auto done = [&] { return static_cast<int>(out.size()) >= num || skipped >= max_skips; };
  auto walk = [&](uint64_t seed, std::optional<T> value) {
    if (!value.has_value()) {
      ++skipped;
      return;
    }
    out.push_back(SeedProbe<T>{seed, std::move(*value)});
    if (on_accept) on_accept(out.size() - 1, out.back());
  };

  if (effective_jobs <= 1) {
    for (uint64_t seed = seed_base + 1; !done(); ++seed) walk(seed, probe(seed));
    if (skipped_out != nullptr) *skipped_out = skipped;
    return out;
  }

  std::optional<ThreadPool> owned;
  if (pool == nullptr) {
    owned.emplace(static_cast<size_t>(effective_jobs - 1));
    pool = &*owned;
  }
  std::mutex mu;
  std::condition_variable walked;
  uint64_t next_claim = seed_base + 1;  // the next seed a thread may claim
  uint64_t next_walk = seed_base + 1;   // the next seed the walk needs
  // Probed seeds the walk has not reached yet. Every seed in
  // [next_walk, next_claim) missing here is still being probed.
  std::map<uint64_t, std::optional<T>> finished;

  // Whether `next_claim` may be claimed: no while the cut-off could still
  // fall `jobs` or more seeds before it. Seeds in flight count as whichever
  // outcome ends the walk soonest, so the bound holds however they turn out.
  auto may_claim = [&] {
    int kept = static_cast<int>(out.size());
    int skips = skipped;
    for (uint64_t seed = next_walk;
         seed + static_cast<uint64_t>(effective_jobs) <= next_claim; ++seed) {
      const auto it = finished.find(seed);
      const bool in_flight = it == finished.end();
      if (in_flight || it->second.has_value()) ++kept;
      if (in_flight || !it->second.has_value()) ++skips;
      if (kept >= num || skips >= max_skips) return false;
    }
    return true;
  };

  pool->ParallelFor(static_cast<size_t>(effective_jobs), [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      // A thread waits only on seeds other threads are probing, so the
      // wait always ends.
      walked.wait(lock, [&] { return done() || may_claim(); });
      if (done()) return;
      const uint64_t seed = next_claim++;
      lock.unlock();
      std::optional<T> value = probe(seed);
      lock.lock();
      finished.emplace(seed, std::move(value));
      for (auto it = finished.begin();
           !done() && it != finished.end() && it->first == next_walk; ++next_walk) {
        walk(next_walk, std::move(it->second));
        it = finished.erase(it);
      }
      walked.notify_all();
    }
  });
  if (skipped_out != nullptr) *skipped_out = skipped;
  return out;
}

}  // namespace laar

#endif  // LAAR_EXEC_PARALLEL_H_
