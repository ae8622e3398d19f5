#include "parallel/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/trace.h"

namespace convoy {

namespace {
// The pool whose worker loop is running on this thread, if any. Used to
// detect re-entrant ParallelFor calls (which must not block on the queue
// they would have to drain themselves).
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

size_t ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  // Oversubscribing past a few hundred workers is never useful for this
  // workload and absurd requests (e.g. a -1 that wrapped through an
  // unsigned parse) must not take the process down trying to spawn them.
  constexpr size_t kMaxThreads = 256;
  num_threads = std::min(num_threads, kMaxThreads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::OnWorkerThread() const { return current_pool == this; }

void ThreadPool::WorkerLoop() {
  current_pool = this;
  // Trace spans recorded on this thread land on a track labeled with the
  // worker role (one Chrome-trace track per worker thread).
  SetTraceThreadLabel("pool-worker");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  const size_t chunks = std::min(num_threads(), n);
  if (chunks <= 1 || OnWorkerThread()) {
    body(0, n);
    return;
  }

  struct JoinState {
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  JoinState state;
  state.remaining = chunks;
  state.errors.resize(chunks);

  // The state lives on this stack frame; the wait below keeps it alive
  // until every chunk has signalled completion.
  const auto run_chunk = [&state, &body, n, chunks](size_t c) {
    const size_t begin = c * n / chunks;
    const size_t end = (c + 1) * n / chunks;
    try {
      body(begin, end);
    } catch (...) {
      state.errors[c] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(state.mu);
      --state.remaining;
      // Notify while holding the lock: the waiter can only re-check the
      // predicate (and destroy `state`) after we release the mutex, so the
      // condition_variable is never touched after its destruction.
      state.done.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t c = 1; c < chunks; ++c) {
      queue_.emplace_back([run_chunk, c] { run_chunk(c); });
    }
  }
  cv_.notify_all();

  run_chunk(0);
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done.wait(lock, [&state] { return state.remaining == 0; });
  }
  for (const std::exception_ptr& error : state.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace convoy
