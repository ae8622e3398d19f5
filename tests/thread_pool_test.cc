#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.h"

namespace convoy {
namespace {

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, ZeroMeansHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareThreads());
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::vector<int> out(1, 0);
  pool.ParallelFor(1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = 7;
  });
  EXPECT_EQ(out[0], 7);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t begin, size_t) {
                         if (begin == 0) {
                           throw std::runtime_error("chunk failure");
                         }
                       }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ExceptionFromEveryChunkStillRethrowsOne) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   8, [](size_t, size_t) { throw std::logic_error("all"); }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(8, [&](size_t begin, size_t end) {
    for (size_t outer = begin; outer < end; ++outer) {
      // Re-entrant use of the same pool: must run inline on this worker
      // (or the caller) rather than deadlocking the fixed-size pool.
      pool.ParallelFor(8, [&, outer](size_t b, size_t e) {
        for (size_t inner = b; inner < e; ++inner) {
          hits[outer * 8 + inner].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPools) {
  ThreadPool a(2);
  ThreadPool b(1);
  EXPECT_FALSE(a.OnWorkerThread());
  // Chunk 0 runs on the calling thread, chunk 1 on a worker of `a`.
  std::vector<int> sees_a(2, -1);
  std::vector<int> sees_b(2, -1);
  a.ParallelFor(2, [&](size_t begin, size_t) {
    sees_a[begin] = a.OnWorkerThread() ? 1 : 0;
    sees_b[begin] = b.OnWorkerThread() ? 1 : 0;
  });
  EXPECT_EQ(sees_a, (std::vector<int>{0, 1}));
  EXPECT_EQ(sees_b, (std::vector<int>{0, 0}));
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(0), ThreadPool::HardwareThreads());
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(8), 8u);
}

TEST(ThreadPoolTest, ManySmallParallelForsStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(17, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 136u);  // 0 + 1 + ... + 16
  }
}

// The ordered loop at 1, 2 and 8 threads over ranges shorter than one
// block, a block plus one, and several blocks.
constexpr size_t kThreadCounts[] = {1, 2, 8};
constexpr size_t kRangeSizes[] = {0, 1, 257, 1000};

TEST(OrderedParallelForTest, ConsumesEveryResultInIndexOrder) {
  for (const size_t threads : kThreadCounts) {
    for (const size_t n : kRangeSizes) {
      std::vector<size_t> consumed;
      std::vector<size_t> values;
      const std::thread::id caller = std::this_thread::get_id();
      bool consumed_on_caller = true;
      OrderedParallelFor(
          n, threads, kSmallUnits, [](size_t i) { return i * i + 1; },
          [&](size_t i, size_t value) {
            consumed_on_caller &= std::this_thread::get_id() == caller;
            consumed.push_back(i);
            values.push_back(value);
          });
      ASSERT_EQ(consumed.size(), n) << threads << " threads, n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(consumed[i], i) << threads << " threads, n=" << n;
        EXPECT_EQ(values[i], i * i + 1) << threads << " threads, n=" << n;
      }
      EXPECT_TRUE(consumed_on_caller) << threads << " threads, n=" << n;
    }
  }
}

TEST(OrderedParallelForTest, OneStatePerChunkNeverSharedAcrossThreads) {
  struct State {
    size_t id;
    std::thread::id owner;
  };
  struct Use {
    size_t state = 0;
    bool same_thread = false;
  };
  for (const size_t threads : kThreadCounts) {
    for (const size_t n : kRangeSizes) {
      std::atomic<size_t> states_made{0};
      std::vector<Use> uses;
      OrderedParallelFor(
          n, threads, kSmallUnits,
          [&] {
            return State{states_made.fetch_add(1),
                         std::this_thread::get_id()};
          },
          [](State& state, size_t) {
            return Use{state.id, state.owner == std::this_thread::get_id()};
          },
          [&](size_t, Use use) { uses.push_back(use); });
      ASSERT_EQ(uses.size(), n);
      // One state per worker chunk of every block; one in all at one
      // thread.
      size_t expected_states = 1;
      if (threads > 1 && n > 1) {
        const size_t workers = std::min(threads, n);
        const size_t block = std::max(workers * kSmallUnits.per_thread,
                                      kSmallUnits.minimum);
        expected_states = 0;
        for (size_t begin = 0; begin < n; begin += block) {
          expected_states += std::min(workers, std::min(block, n - begin));
        }
      }
      EXPECT_EQ(states_made.load(), expected_states)
          << threads << " threads, n=" << n;
      // Every state served one contiguous run of indices, all on the
      // thread that made it.
      std::set<size_t> finished;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(uses[i].same_thread)
            << threads << " threads, n=" << n << ", i=" << i;
        if (i > 0 && uses[i - 1].state != uses[i].state) {
          finished.insert(uses[i - 1].state);
        }
        EXPECT_EQ(finished.count(uses[i].state), 0u)
            << threads << " threads, n=" << n << ", i=" << i;
      }
    }
  }
}

TEST(OrderedParallelForTest, ThrowingProducerConsumesNothingOfItsBlock) {
  constexpr size_t kThrowAt = 300;
  for (const BlockRule rule : {kSmallUnits, kLargeUnits}) {
    for (const size_t threads : kThreadCounts) {
      std::vector<size_t> consumed;
      EXPECT_THROW(OrderedParallelFor(
                       1000, threads, rule,
                       [](size_t i) {
                         if (i == kThrowAt) throw std::runtime_error("unit");
                         return i;
                       },
                       [&](size_t i, size_t) { consumed.push_back(i); }),
                   std::runtime_error);
      // One thread consumes every unit before the throwing one; more
      // consume whole blocks only, the throwing unit's block excluded.
      const size_t block = std::max(threads * rule.per_thread, rule.minimum);
      const size_t expected =
          threads == 1 ? kThrowAt : kThrowAt / block * block;
      ASSERT_EQ(consumed.size(), expected) << threads << " threads";
      for (size_t i = 0; i < expected; ++i) EXPECT_EQ(consumed[i], i);
    }
  }
}

}  // namespace
}  // namespace convoy
