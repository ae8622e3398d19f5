#ifndef CONVOY_PARALLEL_PARALLEL_FOR_H_
#define CONVOY_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "parallel/thread_pool.h"

namespace convoy {

/// Resolves a thread-count knob: 0 means "all hardware threads", any other
/// value is taken literally.
inline size_t ResolveThreadCount(size_t requested) {
  return requested == 0 ? ThreadPool::HardwareThreads() : requested;
}

/// How many units an OrderedParallelFor produces between two ordered
/// consume passes at `threads` threads: max(threads * per_thread, minimum).
/// Buffered results, and the delay before the consumer sees a unit, stay
/// O(block) however long the range.
struct BlockRule {
  size_t per_thread;
  size_t minimum;
};

/// Cheap units: ticks, time partitions, trajectories, store tick blocks.
inline constexpr BlockRule kSmallUnits{16, 256};
/// Heavy units whose consumer should hear from them sooner: refinement
/// windows.
inline constexpr BlockRule kLargeUnits{8, 64};

/// The ordered parallel loop every data-parallel phase fans out through.
/// Runs `produce(state, i)` for each i in [0, n) and hands each result to
/// `consume(i, result)` on the calling thread, in ascending i.
///
/// `threads` follows ResolveThreadCount (0 = all hardware threads). At one
/// thread, or for n <= 1, it is a plain produce-then-consume loop over one
/// `make_state()` on the calling thread: no pool, no buffering. Otherwise
/// a ThreadPool of min(threads, n) workers produces [0, n) block by block
/// (sizes per `rule`); each contiguous worker chunk of a block makes its
/// own state, so a state is never shared between threads, and the block's
/// results are then consumed in order before the next block starts. The
/// result type must be default-constructible and move-assignable.
///
/// Chunk boundaries never reach the consumer, so whatever a producer
/// computes from (state, i) alone comes out identically at every thread
/// count. An exception from `produce` or `make_state` propagates per
/// ThreadPool::ParallelFor once its block finishes, and no result of that
/// block is consumed; one from `consume` propagates at once.
template <typename MakeState, typename Produce, typename Consume>
void OrderedParallelFor(size_t n, size_t threads, BlockRule rule,
                        MakeState&& make_state, Produce&& produce,
                        Consume&& consume) {
  threads = std::min(ResolveThreadCount(threads), n);
  if (threads <= 1) {
    auto state = make_state();
    for (size_t i = 0; i < n; ++i) consume(i, produce(state, i));
    return;
  }
  using State = decltype(make_state());
  using Result = decltype(produce(std::declval<State&>(), size_t{0}));
  ThreadPool pool(threads);
  const size_t block =
      std::max(pool.num_threads() * rule.per_thread, rule.minimum);
  std::vector<Result> results;
  for (size_t begin = 0; begin < n; begin += block) {
    const size_t size = std::min(block, n - begin);
    results.clear();
    results.resize(size);
    pool.ParallelFor(size, [&](size_t chunk_begin, size_t chunk_end) {
      auto state = make_state();
      for (size_t i = chunk_begin; i < chunk_end; ++i) {
        results[i] = produce(state, begin + i);
      }
    });
    for (size_t i = 0; i < size; ++i) consume(begin + i, std::move(results[i]));
  }
}

/// OrderedParallelFor for producers that keep no state: `produce(i)`.
template <typename Produce, typename Consume>
void OrderedParallelFor(size_t n, size_t threads, BlockRule rule,
                        Produce&& produce, Consume&& consume) {
  OrderedParallelFor(
      n, threads, rule, [] { return 0; },
      [&produce](int&, size_t i) { return produce(i); }, consume);
}

}  // namespace convoy

#endif  // CONVOY_PARALLEL_PARALLEL_FOR_H_
