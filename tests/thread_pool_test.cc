#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/synchronization.h"

namespace rdfref {
namespace common {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroAndSingleIterationDegenerate) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "no iterations expected"; });
  int calls = 0;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Tasks submit their own batches: the submitter must participate in its
  // batch (and steal others') instead of blocking a worker slot, or a pool
  // smaller than the nesting width would deadlock.
  ThreadPool pool(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 8;
  std::atomic<size_t> total{0};
  pool.ParallelFor(kOuter, [&](size_t) {
    pool.ParallelFor(kInner, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareThePool) {
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr size_t kIters = 500;
  std::atomic<size_t> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      pool.ParallelFor(kIters, [&](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kIters);
}

TEST(ThreadPoolTest, DefaultThreadsIsAtLeastTwo) {
  // The parallel code paths (and their TSan coverage) must stay exercised
  // even in single-core CI containers.
  EXPECT_GE(ThreadPool::DefaultThreads(), 2);
  EXPECT_GE(ThreadPool::Shared().num_threads(), 2);
}

TEST(ThreadPoolTest, UnusedPoolDestructsWithoutStartingWorkers) {
  // Lazy start: a pool that never ran a batch has no workers to join, and
  // its destructor's swap-under-lock must handle the empty vector.
  for (int i = 0; i < 100; ++i) {
    ThreadPool pool(8);
    EXPECT_EQ(pool.num_threads(), 8);
  }
}

TEST(ThreadPoolTest, DestructionAfterWorkJoinsAllWorkers) {
  // Regression for the shutdown path: the destructor must move the worker
  // handles out under the lock (joining while holding mu_ would deadlock
  // with a worker draining its last batch; reading workers_ unlocked was
  // the thread-safety-analysis finding). Churn start/stop to give TSan a
  // window.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    pool.ParallelFor(64, [&](size_t) {
      sum.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64);
  }
}

// ---------------------------------------------------------------------------
// common/synchronization.h primitives (run here so the TSan job covers them)
// ---------------------------------------------------------------------------

TEST(SynchronizationTest, MutexLockSerializesIncrements) {
  Mutex mu;
  int counter = 0;  // guarded by mu (annotation elided: local test state)
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SynchronizationTest, CondVarPredicateWaitObservesSignal) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = 0;
  std::thread waiter([&] {
    mu.Lock();
    cv.Wait(&mu, [&] { return ready; });
    observed = 1;
    mu.Unlock();
  });
  {
    MutexLock lock(&mu);
    ready = true;
    cv.SignalAll();
  }
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(SynchronizationTest, TryLockReportsContention) {
  Mutex mu;
  mu.Lock();
  std::thread other([&] {
    if (mu.TryLock()) {
      ADD_FAILURE() << "TryLock must fail while another thread holds mu";
      mu.Unlock();
    }
  });
  other.join();
  mu.Unlock();
}

}  // namespace
}  // namespace common
}  // namespace rdfref
