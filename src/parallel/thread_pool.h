#ifndef CONVOY_PARALLEL_THREAD_POOL_H_
#define CONVOY_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace convoy {

/// A fixed-size pool of worker threads with a chunk-based ParallelFor — the
/// engine under OrderedParallelFor (parallel_for.h), the one loop the
/// threaded discovery phases are built on.
///
/// Design notes:
///  * No work stealing: ParallelFor splits [0, n) into at most num_threads()
///    balanced contiguous chunks, one task per chunk. Chunk boundaries
///    depend only on (n, num_threads()), never on scheduling, so any
///    per-chunk state a caller accumulates is deterministic.
///  * Deterministic result ordering is achieved in the caller's index
///    space: workers write into caller-owned slots keyed by loop index
///    (OrderedParallelFor's per-block results), so output order never
///    depends on which worker ran which chunk.
///  * Re-entrancy: a ParallelFor issued from inside a pool task runs inline
///    on the calling worker (serially over its whole range) instead of
///    enqueueing, so nested parallel sections cannot deadlock the
///    fixed-size pool.
///  * Exceptions thrown by a chunk body are captured per chunk; after all
///    chunks finish, the exception of the lowest-indexed failing chunk is
///    rethrown on the calling thread.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means HardwareThreads(). Requests are
  /// capped at 256 workers — protects against wrapped negative values and
  /// absurd oversubscription.
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains nothing: joins after finishing tasks already in the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs body(begin, end) over disjoint contiguous chunks covering [0, n)
  /// and blocks until every chunk completed. The calling thread executes
  /// chunk 0 itself, so a pool of T workers runs at most T concurrent
  /// chunks. An empty range returns immediately without invoking the body.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body);

  /// True when called from one of this pool's worker threads.
  bool OnWorkerThread() const;

  /// std::thread::hardware_concurrency() with a floor of 1.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  /// Written only by the constructor / joined by the destructor; never
  /// touched by workers, so no guard.
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;  // GUARDED_BY(mu_)
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                        // GUARDED_BY(mu_)
};

}  // namespace convoy

#endif  // CONVOY_PARALLEL_THREAD_POOL_H_
