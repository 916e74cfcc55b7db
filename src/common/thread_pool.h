// Persistent worker pool with OpenMP-like fork/join regions.
//
// Multi-threaded BLAS libraries keep a warm thread pool and activate a subset
// of workers per call; ADSALA's thread-count selection relies on being able
// to run each GEMM on an exact number of threads without re-spawning (the
// paper separates per-thread-count runs to avoid respawn noise, §III-B). This
// pool mirrors that: workers are created once, and parallel_region(p, fn)
// runs fn(tid, p) on p participants (caller = tid 0) with a join barrier.
//
// Fork and join both use a bounded spin before sleeping on a condition
// variable: back-to-back small regions (the repeated-small-GEMM pattern the
// thread-count model is trained on) hand off in the spin window without
// paying a futex wakeup per region, while an idle pool still parks its
// workers instead of burning a core each.
//
// Exception safety: a throw from the region body (any participant, worker
// or caller) never calls std::terminate. Workers run the body under a
// catch-all; the first captured exception is stashed and rethrown on the
// CALLING thread after the join barrier, so every participant has left the
// region and the pool is reusable before the caller's unwind begins. Later
// exceptions from the same region are dropped (first wins) — the serving
// contract needs one representative failure, not all of them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adsala {

class ThreadPool {
 public:
  /// Creates `workers` background threads (typically hardware_concurrency-1;
  /// the caller participates as thread 0, so max parallelism = workers + 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum usable parallelism (background workers + the calling thread).
  std::size_t max_threads() const { return threads_.size() + 1; }

  /// Runs fn(tid, nthreads) on `nthreads` participants and joins. nthreads is
  /// clamped to [1, max_threads()]. Not reentrant; one region at a time.
  /// Exception-safe: if any participant throws, the first exception is
  /// rethrown here (on the calling thread) after all participants joined;
  /// workers never terminate the process.
  void parallel_region(std::size_t nthreads,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// Statically-chunked parallel loop over [begin, end) on nthreads threads.
  void parallel_for(std::size_t nthreads, std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Regions that forked onto workers so far (serial and nested regions
  /// run inline and are not counted): one relaxed add per fork, read by
  /// tests that pin how many regions an op opens.
  std::uint64_t regions_forked() const {
    return regions_forked_.load(std::memory_order_relaxed);
  }

  /// True while the calling thread is executing inside a parallel region
  /// (a nested parallel_region request would degrade to serial).
  static bool in_region();

  /// Process-wide pool, lazily constructed. Sized to hardware concurrency
  /// unless `ADSALA_THREADS` overrides it (clamped to [1, 256]; values above
  /// the core count oversubscribe deliberately — concurrency tests on small
  /// hosts need a multi-thread pool more than they need one core per
  /// worker). Read once at first use; later setenv calls have no effect.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_threads_ = 0;  // participants in the current region
  /// Region sequence number; workers (a) spin on it briefly, then (b) sleep
  /// on cv_start_. Bumped under mutex_ so the sleeping path cannot miss a
  /// wakeup. The counter is only a wake signal: job_ / job_threads_ are
  /// NEVER read lock-free — a woken worker re-acquires mutex_ to take a
  /// consistent (generation, job) snapshot (see worker_loop).
  std::atomic<std::size_t> generation_{0};
  std::atomic<std::size_t> remaining_{0};  // workers yet to finish the region
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> regions_forked_{0};
  /// First exception thrown by any participant of the current region;
  /// guarded by mutex_, cleared at region start, rethrown by the caller
  /// after the join.
  std::exception_ptr region_exception_;
};

}  // namespace adsala
