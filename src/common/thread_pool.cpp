#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "common/failpoint.h"

namespace adsala {

namespace {
// Set while a thread is executing inside a parallel region; nested region
// requests from pool workers (e.g. a model's parallel fit inside a parallel
// grid search) degrade to serial execution instead of deadlocking.
thread_local bool t_in_region = false;

/// One iteration of a busy-wait: a pause hint on x86 so the spinning
/// hyperthread cedes pipeline resources, a plain re-read elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Bounded spin budget before a waiter parks on its condition variable.
/// ~4k pause iterations is on the order of 100 us of wall clock — enough to
/// bridge the gap between back-to-back GEMM regions (the repeated-small-GEMM
/// pattern the thread-count model is trained on), short enough that a
/// genuinely idle pool stops burning its cores almost immediately.
inline constexpr int kSpinIters = 1 << 12;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // Worker i participates as tid i+1 (the caller is tid 0).
  const std::size_t tid = worker_index + 1;
  std::size_t seen_generation = 0;
  // Only workers that ran in the previous region spin for the next one: a
  // steady stream of p-thread regions keeps those p-1 workers on the fast
  // path, while the workers above p park immediately instead of burning a
  // spin budget per region on a job they will not join (their reactivation
  // latency is the condvar wake they always paid). True on entry so a
  // freshly spawned pool catches its first region cheaply.
  bool spin_for_next = true;
  while (true) {
    // Fork wait, spin-then-sleep: a bounded lock-free spin on the region
    // counter catches back-to-back regions without a futex round trip, then
    // the worker parks on cv_start_. The job fields are re-read under the
    // mutex afterwards — a worker that slept through several regions (it was
    // not a participant) must see a (generation, job) pair from one
    // consistent region, never a half-written setup.
    int spins = 0;
    while (generation_.load(std::memory_order_relaxed) == seen_generation &&
           !stop_.load(std::memory_order_relaxed)) {
      if (!spin_for_next || ++spins >= kSpinIters) {
        std::unique_lock lock(mutex_);
        cv_start_.wait(lock, [&] {
          return stop_.load(std::memory_order_relaxed) ||
                 generation_.load(std::memory_order_relaxed) !=
                     seen_generation;
        });
        break;
      }
      cpu_relax();
    }
    const std::function<void(std::size_t, std::size_t)>* job = nullptr;
    std::size_t nthreads = 0;
    {
      std::lock_guard lock(mutex_);
      if (stop_.load(std::memory_order_relaxed)) return;
      seen_generation = generation_.load(std::memory_order_relaxed);
      job = job_;
      nthreads = job_threads_;
    }
    spin_for_next = tid < nthreads;
    if (tid >= nthreads) {
      // Not a participant this region; it is already accounted for in
      // remaining_, so just skip.
      continue;
    }
    t_in_region = true;
    try {
      if (failpoint::triggered("worker-throw")) {
        throw std::runtime_error("failpoint worker-throw: injected worker "
                                 "exception (tid " + std::to_string(tid) +
                                 ")");
      }
      (*job)(tid, nthreads);
    } catch (...) {
      // Never let an exception escape the worker loop (that would be
      // std::terminate). First capture wins; the caller rethrows it after
      // the join, when every participant has left the region.
      std::lock_guard lock(mutex_);
      if (!region_exception_) region_exception_ = std::current_exception();
    }
    t_in_region = false;
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last worker out. The caller may already be parked on cv_done_;
      // taking the mutex orders this notify after its predicate check.
      std::lock_guard lock(mutex_);
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::parallel_region(
    std::size_t nthreads,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  nthreads = std::clamp<std::size_t>(nthreads, 1, max_threads());
  if (nthreads == 1 || t_in_region) {
    fn(0, 1);
    return;
  }
  t_in_region = true;
  regions_forked_.fetch_add(1, std::memory_order_relaxed);
  {
    // Job fields and the generation bump are published together under the
    // mutex: spinners only key off the atomic counter and then take the lock
    // to read a consistent snapshot, sleepers are covered by the usual
    // cv predicate rules.
    std::lock_guard lock(mutex_);
    job_ = &fn;
    job_threads_ = nthreads;
    remaining_.store(nthreads - 1, std::memory_order_relaxed);
    region_exception_ = nullptr;
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_start_.notify_all();
  try {
    fn(0, nthreads);
  } catch (...) {
    // The caller's own throw must not skip the join: the workers still hold
    // references into fn's closure. Stash it in the shared first-wins slot
    // and fall through to the join below.
    std::lock_guard lock(mutex_);
    if (!region_exception_) region_exception_ = std::current_exception();
  }
  // Join wait, mirror image of the workers' fork wait: spin briefly for the
  // common case of similarly-loaded participants, then sleep.
  int spins = 0;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    if (++spins >= kSpinIters) {
      std::unique_lock lock(mutex_);
      // Acquire: a spurious wakeup can observe the last worker's decrement
      // before that worker takes the mutex to notify, so the predicate load
      // itself must publish the workers' writes to the caller.
      cv_done_.wait(lock, [&] {
        return remaining_.load(std::memory_order_acquire) == 0;
      });
      break;
    }
    cpu_relax();
  }
  std::exception_ptr first;
  {
    std::lock_guard lock(mutex_);
    job_ = nullptr;
    first = region_exception_;
    region_exception_ = nullptr;
  }
  t_in_region = false;
  // Rethrown only now: every participant has left the region, the pool is
  // back to idle, and the caller's unwind cannot race worker cleanup.
  if (first) std::rethrow_exception(first);
}

void ThreadPool::parallel_for(std::size_t nthreads, std::size_t begin,
                              std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  nthreads = std::clamp<std::size_t>(nthreads, 1, max_threads());
  nthreads = std::min(nthreads, count);
  parallel_region(nthreads, [&](std::size_t tid, std::size_t p) {
    const std::size_t chunk = (count + p - 1) / p;
    const std::size_t lo = begin + tid * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

bool ThreadPool::in_region() { return t_in_region; }

namespace {
/// Pool sizing for the process-wide pool: ADSALA_THREADS when set and
/// parseable (clamped to [1, 256] — oversubscription is allowed so
/// concurrency tests can exercise the parallel paths on small hosts),
/// hardware concurrency otherwise.
std::size_t global_pool_threads() {
  if (const char* env = std::getenv("ADSALA_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(std::min<long>(parsed, 256));
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_pool_threads() - 1);
  return pool;
}

}  // namespace adsala
