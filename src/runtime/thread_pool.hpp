// Persistent thread pool with futures — the worker substrate of the
// concurrent masked-SpGEMM runtime (batch executor + plan cache).
//
// Coexists with the OpenMP paths: pool workers are plain std::threads, so a
// job running on a worker can still enter OpenMP regions (each worker is its
// own OpenMP initial thread), but the runtime's own scheduling never goes
// through OpenMP. That separation is deliberate — it keeps the concurrency
// the runtime introduces fully visible to ThreadSanitizer (std::mutex /
// atomics / futures), which the CI TSan job relies on.
//
// The pool doubles as a TaskArena (common/exec_context.hpp): a large masked
// product can run cooperatively on the calling thread plus every idle
// worker, which is how the batch executor gives wide jobs intra-job
// parallelism without forking an OpenMP team.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/exec_context.hpp"
#include "common/thread_annotations.hpp"

namespace msx {

// Two-level job priority shared by the runtime and the client API: interactive
// work (a user waiting on the answer) is dequeued before batch work wherever a
// queue forms — the thread pool's task queue, the batch executor's wide lane,
// and the sharded client's per-connection send queues. FIFO within a level.
enum class Priority {
  kInteractive,
  kBatch,
};

const char* to_string(Priority p);

class ThreadPool final : public TaskArena {
 public:
  // threads <= 0 picks the OpenMP default (max_threads()), so a pool sized
  // "like the machine" matches what a single OpenMP-parallel call would use.
  explicit ThreadPool(int threads = 0);

  // Drains every queued task (futures stay valid), then joins the workers.
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Index of the calling thread within this pool ([0, size())), or -1 when
  // called from a thread that is not one of this pool's workers.
  int worker_index() const;

  // Enqueues fn and returns a future for its result. Exceptions thrown by fn
  // surface at future.get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto promise = std::make_shared<std::promise<R>>();
    auto future = promise->get_future();
    submit_detached([promise, fn = std::forward<F>(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          promise->set_value();
        } else {
          promise->set_value(fn());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return future;
  }

  // Fire-and-forget enqueue. The task must not throw (use submit() for
  // fallible work). Interactive tasks are dequeued before batch tasks; order
  // within a level is FIFO.
  void submit_detached(std::function<void()> task,
                       Priority priority = Priority::kBatch);

  // Tasks fully executed so far (stat for tests and the service example).
  std::size_t tasks_executed() const;

  // --- TaskArena ---
  // Cooperative run: the caller executes body(current_slot()) and every
  // worker is offered body once. Workers busy with other tasks skip the
  // offer once the caller has finished; while waiting for stragglers the
  // caller helps drain the regular task queue, so a run() issued from inside
  // a worker (or against a fully busy pool) cannot deadlock.
  int concurrency() const override { return size() + 1; }
  int current_slot() const override { return worker_index() + 1; }
  void run(const std::function<void(int)>& body) override;

 private:
  struct HelperState;

  void worker_loop(int index);
  // Pops one queued task and runs it; returns false if the queues were empty.
  bool try_run_one();
  // Interactive first; caller must have checked have_work_locked().
  std::function<void()> pop_locked() MSX_REQUIRES(mu_);
  bool have_work_locked() const MSX_REQUIRES(mu_) {
    return !queue_hi_.empty() || !queue_.empty();
  }

  std::vector<std::thread> workers_;
  mutable Mutex mu_{LockRank::kThreadPool, "ThreadPool::mu_"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_hi_
      MSX_GUARDED_BY(mu_);                                // kInteractive
  std::deque<std::function<void()>> queue_ MSX_GUARDED_BY(mu_);  // kBatch
  bool stop_ MSX_GUARDED_BY(mu_) = false;
  std::size_t executed_ MSX_GUARDED_BY(mu_) = 0;
};

}  // namespace msx
