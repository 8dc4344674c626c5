// ThreadPool: futures, worker identity, the cooperative arena protocol and
// graceful shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

using namespace msx;

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
  // The counter ticks just after each task's future is set.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.tasks_executed() < 64u &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(pool.tasks_executed(), 64u);
}

TEST(ThreadPool, ExceptionsSurfaceAtFutureGet) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WorkerIndexIsStableAndScoped) {
  ThreadPool pool(3);
  // The submitting thread is not a worker.
  EXPECT_EQ(pool.worker_index(), -1);
  EXPECT_EQ(pool.current_slot(), 0);
  std::mutex mu;
  std::set<int> seen;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&] {
      const int idx = pool.worker_index();
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(idx);
    }));
  }
  for (auto& f : futures) f.get();
  for (int idx : seen) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, pool.size());
  }
}

TEST(ThreadPool, ArenaRunCoversAllWorkExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  std::atomic<std::int64_t> next{0};
  pool.run([&](int slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, pool.concurrency());
    for (;;) {
      const auto i = next.fetch_add(1);
      if (i >= kItems) break;
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPool, ArenaRunFromInsideAWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  auto f = pool.submit([&] {
    std::atomic<int> count{0};
    std::atomic<std::int64_t> next{0};
    pool.run([&](int) {
      for (;;) {
        if (next.fetch_add(1) >= 100) break;
        count.fetch_add(1);
      }
    });
    return count.load();
  });
  EXPECT_EQ(f.get(), 100);
}

TEST(ThreadPool, ConcurrentRunsNeverShareSlotZero) {
  // Regression: slot 0 belongs to a run's caller. A second caller draining
  // the queue (run()'s help-while-waiting loop) may dequeue a foreign run's
  // helper offer; it must retire it WITHOUT executing the body, or two
  // threads would both operate as slot 0 of the same run.
  ThreadPool pool(1);  // one busy worker maximizes queued offers
  std::atomic<bool> violated{false};
  auto hammer = [&] {
    const auto me = std::this_thread::get_id();
    for (int r = 0; r < 50; ++r) {
      std::atomic<std::int64_t> next{0};
      pool.run([&, me](int slot) {
        if (slot == 0 && std::this_thread::get_id() != me) {
          violated.store(true);
        }
        while (next.fetch_add(1) < 64) {
        }
      });
    }
  };
  std::thread t1(hammer), t2(hammer);
  t1.join();
  t2.join();
  EXPECT_FALSE(violated.load());
}

TEST(ThreadPool, ArenaRunPropagatesBodyExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run([](int) { throw std::runtime_error("arena boom"); }),
      std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([i] { return i; }));
    }
    // Destructor must finish every queued task before joining.
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  }
}

TEST(ThreadPool, DefaultSizeMatchesOpenMPDefault) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), max_threads());
  EXPECT_EQ(pool.concurrency(), pool.size() + 1);
}
