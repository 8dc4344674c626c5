// BatchExecutor — concurrent masked-SpGEMM service front end (ISSUE 3
// tentpole): submit(A, B, M, options) returns a future; many products run
// concurrently on a persistent thread pool, plans are transparently reused
// through the structure-keyed PlanCache, and a moldable policy decides each
// job's shape:
//
//   * small jobs (estimated work below `wide_work_threshold`) run fully
//     serial — ExecContext::serial(), no OpenMP region, one job per pool
//     worker. At service scale this inter-job parallelism is where the
//     throughput is: per-call parallel-region and planning overheads dwarf
//     the kernels themselves (CombBLAS and the emergent-sparsity MMM work
//     both make this observation for batched sparse products).
//   * wide jobs get the whole pool: a dedicated lane runs one wide job at a
//     time with ExecContext::arena(pool), so its symbolic/numeric passes are
//     executed cooperatively by every pool worker that is not busy with a
//     small job — intra-job parallelism without forking an OpenMP team.
//
// Results are bit-identical to direct masked_spgemm calls with the same
// options: schedules and contexts never change what a row computes, only
// who computes it (tests/runtime/test_runtime_stress.cpp holds the line).
//
// Operands are copied at submit (service semantics: the caller may mutate or
// drop its matrices immediately); aliased operands (k-truss passes the same
// matrix as A, B and mask) are detected by address and stored once.
//
// Every job ends in one place: the worker hands a JobResult to the
// submitter's completion (the service shard writes its response there, the
// local client backend resolves its request). The future-returning submits
// are adapters that fulfil a promise from that completion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/exec_context.hpp"
#include "common/thread_annotations.hpp"
#include "core/kernel_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "matrix/csr.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "semiring/semirings.hpp"

namespace msx {

// Which lane a job runs in (moldable scheduling decision).
enum class JobShape {
  kSmall,  // serial on one pool worker (inter-job parallelism)
  kWide,   // whole pool via the wide lane (intra-job parallelism)
};

// Pure policy: small below the threshold, wide at or above it. `threshold`
// <= 0 forces everything small (useful to benchmark the lanes separately).
JobShape moldable_shape(double estimated_work, double threshold);

// What submit() does when the executor is at its admission limits
// (max_pending_jobs / max_pending_bytes): block the caller until capacity
// frees up, or reject immediately with BatchRejected. A service front end
// wants kReject (turn overload into a cheap wire-level "overloaded" response
// the client can fail over on); embedded callers usually want kBlock.
enum class AdmissionPolicy {
  kBlock,
  kReject,
};

// Thrown by submit()/submit_shared() under AdmissionPolicy::kReject when the
// executor is at capacity. The job was NOT enqueued (and is not counted in
// stats().submitted).
class BatchRejected : public std::runtime_error {
 public:
  BatchRejected()
      : std::runtime_error(
            "BatchExecutor: admission limits reached (back-pressure)") {}
};

// Per-job submit options beyond the MaskedOptions that shape the product
// itself: queueing priority (interactive jobs are popped before batch jobs in
// both the pool queue and the wide lane) and the request's trace.
struct JobOptions {
  Priority priority = Priority::kBatch;
  // Ambient trace for the job: the worker installs it for the duration, so
  // executor and phase_driver spans parent under the request's timeline.
  obs::TraceContext trace;
};

struct BatchLimits {
  // Pool worker count; <= 0 picks the OpenMP default (max_threads()).
  int pool_threads = 0;
  // Structure keys the plan cache retains (LRU beyond that).
  std::size_t plan_cache_capacity = 64;
  // Moldable cutoff on the O(1) work estimate (detail::estimate_push_work);
  // defaults
  // to the same ~1e5-flops boundary the kAuto schedule uses for its
  // tiny-input decision — below it a product cannot feed even one parallel
  // pass, so running it serial costs nothing and frees the pool.
  double wide_work_threshold = kAutoScheduleTinyWork;
  // Disable to plan every job from scratch (ablation / memory ceiling).
  bool cache_plans = true;
  // Plan-cache byte budget: bytes the cached plans may hold (operand copies,
  // CSC of B, symbolic rowptr, partition) before LRU eviction kicks in even
  // under the entry-count capacity. 0 = entry-count LRU only.
  std::size_t plan_cache_bytes = 0;
  // Bounded-queue admission: maximum in-flight jobs (submitted, not yet
  // completed) and in-flight operand bytes. 0 = unbounded. A single job
  // larger than max_pending_bytes is still admitted when it is alone, so an
  // oversized request degrades to serialization instead of deadlock.
  std::size_t max_pending_jobs = 0;
  std::size_t max_pending_bytes = 0;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
};

// Read view over the msx_executor_* counters, the admission state and the
// plan cache's view.
struct BatchStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t small_jobs = 0;
  std::uint64_t wide_jobs = 0;
  std::uint64_t interactive_jobs = 0;  // jobs admitted at Priority::kInteractive
  std::uint64_t rejected = 0;          // kReject admissions refused
  std::uint64_t admission_blocks = 0;  // kBlock submits that had to wait
  std::uint64_t pending_jobs = 0;      // in-flight gauge at snapshot time
  std::uint64_t pending_bytes = 0;     // in-flight operand bytes gauge
  PlanCacheStats cache;
};

template <class SR, class IT, class VT>
  requires Semiring<SR>
class BatchExecutor {
 public:
  using output_matrix = CSRMatrix<IT, typename SR::value_type>;
  using Cache = PlanCache<SR, IT, VT>;

  // A finished job: the product, or the exception it failed with (then
  // `matrix` is empty), plus its admission -> start and run times.
  struct JobResult {
    output_matrix matrix;
    std::exception_ptr error;
    std::uint64_t queue_ns = 0;
    std::uint64_t run_ns = 0;
  };
  // Receives every admitted job's JobResult exactly once, on the executing
  // worker, before the job leaves the executor's in-flight accounting: the
  // job keeps its admission slot while the completion runs, and wait_idle()
  // returning means every completion has returned. Must not throw and must
  // not re-enter the executor.
  using Completion = std::function<void(JobResult)>;

  explicit BatchExecutor(const BatchLimits& limits = {})
      : limits_(limits),
        pool_(limits.pool_threads),
        cache_(metrics_, limits.plan_cache_capacity, limits.plan_cache_bytes),
        wide_thread_([this] { wide_loop(); }) {
    metrics_.gauge_fn("msx_executor_pending_jobs", "", [this] {
      return static_cast<double>(stats().pending_jobs);
    });
    metrics_.gauge_fn("msx_executor_pending_bytes", "", [this] {
      return static_cast<double>(stats().pending_bytes);
    });
  }

  // Drains every submitted job, then shuts the lanes down.
  ~BatchExecutor() {
    wait_idle();
    {
      MutexLock lock(&mu_);
      wide_stop_ = true;
    }
    wide_cv_.notify_all();
    wide_thread_.join();
    // pool_ destructor drains and joins its workers.
  }

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  // Enqueues C = M .* (A·B) (or the complemented form) and returns a future
  // for the result. Operands are copied (the caller may mutate or drop them
  // immediately); aliases among A/B/M are preserved. Validation errors
  // (shape mismatches, unsupported algorithm/mask combinations) surface at
  // future.get().
  template <class MT>
  std::future<output_matrix> submit(const CSRMatrix<IT, VT>& a,
                                    const CSRMatrix<IT, VT>& b,
                                    const CSRMatrix<IT, MT>& m,
                                    const MaskedOptions& opts = {},
                                    JobOptions job = {}) {
    // Collapse aliases so the plan sees the same aliasing the caller
    // expressed (and the fingerprint keys on it).
    auto ca = std::make_shared<const CSRMatrix<IT, VT>>(a);
    std::shared_ptr<const CSRMatrix<IT, VT>> cb = ca;
    if (static_cast<const void*>(&b) != static_cast<const void*>(&a)) {
      cb = std::make_shared<const CSRMatrix<IT, VT>>(b);
    }
    std::shared_ptr<const CSRMatrix<IT, MT>> cm;
    if constexpr (std::is_same_v<MT, VT>) {
      if (static_cast<const void*>(&m) == static_cast<const void*>(&a)) {
        cm = ca;
      } else if (static_cast<const void*>(&m) ==
                 static_cast<const void*>(&b)) {
        cm = cb;
      }
    }
    if (cm == nullptr) cm = std::make_shared<const CSRMatrix<IT, MT>>(m);
    return submit_shared(std::move(ca), std::move(cb), std::move(cm), opts,
                         std::move(job));
  }

  // Zero-copy form for callers that already hold shared operands (the apps'
  // stationary adjacency matrix, re-submitted every BFS/BC level, must not
  // be copied per job). Aliasing is expressed by passing the same
  // shared_ptr; the matrices must not be mutated while jobs are in flight.
  // `lineage` (optional) names the superseded B and the delta that produced
  // the current one, letting the plan cache migrate a warm superseded plan
  // forward instead of building cold (streaming updates; see PlanLineage).
  template <class MT>
  std::future<output_matrix> submit_shared(
      std::shared_ptr<const CSRMatrix<IT, VT>> a,
      std::shared_ptr<const CSRMatrix<IT, VT>> b,
      std::shared_ptr<const CSRMatrix<IT, MT>> m,
      const MaskedOptions& opts = {}, JobOptions job = {},
      std::shared_ptr<const PlanLineage<IT, VT>> lineage = nullptr) {
    auto promise = std::make_shared<std::promise<output_matrix>>();
    auto future = promise->get_future();
    submit_shared(std::move(a), std::move(b), std::move(m), opts,
                  std::move(job), std::move(lineage), [promise](JobResult r) {
                    if (r.error) {
                      promise->set_exception(r.error);
                    } else {
                      promise->set_value(std::move(r.matrix));
                    }
                  });
    return future;
  }

  // Completion form: the job's outcome goes to `done` on the worker instead
  // of a future. Admission failures (BatchRejected, null operands) still
  // throw here, and then `done` is never called.
  template <class MT>
  void submit_shared(std::shared_ptr<const CSRMatrix<IT, VT>> a,
                     std::shared_ptr<const CSRMatrix<IT, VT>> b,
                     std::shared_ptr<const CSRMatrix<IT, MT>> m,
                     const MaskedOptions& opts, JobOptions job,
                     std::shared_ptr<const PlanLineage<IT, VT>> lineage,
                     Completion done) {
    check_arg(a != nullptr && b != nullptr && m != nullptr,
              "BatchExecutor::submit_shared: null operand");
    const JobShape shape = moldable_shape(
        detail::estimate_push_work(static_cast<double>(a->nnz()),
                                   static_cast<double>(b->nnz()),
                                   static_cast<double>(b->nrows())),
        limits_.wide_work_threshold);

    // Operand bytes this job keeps alive while in flight (aliases counted
    // once) — the unit of the byte-bounded admission policy.
    std::size_t job_bytes = a->storage_bytes();
    if (static_cast<const void*>(b.get()) != static_cast<const void*>(a.get()))
      job_bytes += b->storage_bytes();
    if (static_cast<const void*>(m.get()) !=
            static_cast<const void*>(a.get()) &&
        static_cast<const void*>(m.get()) != static_cast<const void*>(b.get()))
      job_bytes += m->storage_bytes();
    admit(job_bytes);

    const std::uint64_t t_enq = obs::now_ns();
    auto body = [this, shape, a, b, m, opts, lineage, t_enq, job_bytes,
                 trace = job.trace, done = std::move(done)] {
      JobResult r;
      const std::uint64_t t_start = obs::now_ns();
      r.queue_ns = t_start - t_enq;
      h_queue_->observe_ns(r.queue_ns);
      {
        // Install the request's ambient trace so the exec.run span and any
        // phase_driver spans below parent under the request timeline.
        obs::ScopedTraceContext tctx(trace);
        if (obs::trace_enabled()) {
          obs::record_span("exec.queue", trace.id, obs::next_span_id(),
                           trace.parent_span, t_enq, r.queue_ns,
                           trace.component);
        }
        try {
          obs::ScopedSpan span("exec.run");
          // Shared operands alias by pointer, so the plan sees the aliasing
          // the submitter expressed.
          r.matrix = run_job(shape, *a, *b, *m, opts, lineage.get());
          r.run_ns = obs::now_ns() - t_start;
          h_run_->observe_ns(r.run_ns);
          h_job_->observe_ns(r.queue_ns + r.run_ns);
        } catch (...) {
          r.error = std::current_exception();
          r.run_ns = obs::now_ns() - t_start;
        }
      }
      done(std::move(r));
      job_done(job_bytes);
    };

    submitted_->inc();
    (shape == JobShape::kSmall ? small_jobs_ : wide_jobs_)->inc();
    if (job.priority == Priority::kInteractive) interactive_jobs_->inc();
    if (shape == JobShape::kSmall) {
      pool_.submit_detached(std::move(body), job.priority);
    } else {
      {
        MutexLock lock(&mu_);
        (job.priority == Priority::kInteractive ? wide_queue_hi_ : wide_queue_)
            .push_back(std::move(body));
      }
      wide_cv_.notify_one();
    }
  }

  // Blocks until every job submitted so far has completed and its
  // completion has returned.
  void wait_idle() {
    MutexLock lock(&mu_);
    while (outstanding_ != 0) idle_cv_.wait(mu_);
  }

  BatchStats stats() const {
    BatchStats out;
    out.submitted = submitted_->value();
    out.completed = completed_->value();
    out.small_jobs = small_jobs_->value();
    out.wide_jobs = wide_jobs_->value();
    out.interactive_jobs = interactive_jobs_->value();
    out.rejected = rejected_->value();
    out.admission_blocks = admission_blocks_->value();
    {
      MutexLock lock(&mu_);
      out.pending_jobs = outstanding_;
      out.pending_bytes = pending_bytes_;
    }
    out.cache = cache_.stats();
    return out;
  }

  // The storage behind stats(): latency histograms, executor and plan-cache
  // counters, render-time gauges. Render with a `shard="..."` extra label to
  // scope an in-process fleet.
  obs::Registry& metrics() { return metrics_; }

  int pool_threads() const { return pool_.size(); }
  ThreadPool& pool() { return pool_; }
  Cache& plan_cache() { return cache_; }

 private:
  template <class MT>
  output_matrix run_job(JobShape shape, const CSRMatrix<IT, VT>& a,
                        const CSRMatrix<IT, VT>& b, const CSRMatrix<IT, MT>& m,
                        const MaskedOptions& opts,
                        const PlanLineage<IT, VT>* lineage = nullptr) {
    // Small jobs must stay off the OpenMP team entirely; plan construction
    // (operand copies, CSC transpose) still routes through shared helpers
    // with OpenMP loops, so pin this worker's team size to 1 for the
    // duration. Wide jobs keep the default (their parallelism comes from
    // the arena, and any incidental OpenMP loop in setup may use the
    // machine).
    ScopedNumThreads omp_guard(shape == JobShape::kSmall ? 1 : 0);
    const ExecContext ctx = shape == JobShape::kSmall
                                ? ExecContext::serial()
                                : ExecContext::arena(pool_);
    if (!limits_.cache_plans) {
      MaskedPlan<SR, IT, VT> plan(a, b, m, opts);
      return plan.execute(ctx);
    }
    auto lease = cache_.acquire(a, b, m, opts, lineage);
    if (!lease.reused()) return lease.plan().execute(ctx);
    // Cache hit: same structure, possibly different numerics — refresh the
    // plan's owned values (O(nnz) copy, which the avoided planning dwarfs).
    const bool b_aliases_a =
        static_cast<const void*>(&b) == static_cast<const void*>(&a);
    return lease.plan().execute_values(
        a.values(), b_aliases_a ? std::span<const VT>{} : b.values(), ctx);
  }

  // Admission control (back-pressure): reserves an in-flight slot and the
  // job's operand bytes, blocking or throwing BatchRejected at the limits.
  // A byte-bounded executor still admits an oversized job once it is alone
  // (outstanding_ == 0), so limits degrade throughput, never liveness.
  void admit(std::size_t job_bytes) {
    MutexLock lock(&mu_);
    if (over_limits_locked(job_bytes)) {
      if (limits_.admission == AdmissionPolicy::kReject) {
        rejected_->inc();
        throw BatchRejected();
      }
      admission_blocks_->inc();
      while (over_limits_locked(job_bytes)) admit_cv_.wait(mu_);
    }
    ++outstanding_;
    pending_bytes_ += job_bytes;
  }

  // True while admitting job_bytes would exceed max_pending_jobs/bytes.
  bool over_limits_locked(std::size_t job_bytes) const MSX_REQUIRES(mu_) {
    if (limits_.max_pending_jobs > 0 &&
        outstanding_ >= limits_.max_pending_jobs) {
      return true;
    }
    if (limits_.max_pending_bytes > 0 && outstanding_ > 0 &&
        pending_bytes_ + job_bytes > limits_.max_pending_bytes) {
      return true;
    }
    return false;
  }

  // Counts the completion before dropping outstanding_, so whoever
  // wait_idle() releases reads it.
  void job_done(std::size_t job_bytes) {
    completed_->inc();
    MutexLock lock(&mu_);
    pending_bytes_ -= job_bytes;
    if (--outstanding_ == 0) idle_cv_.notify_all();
    admit_cv_.notify_all();
  }

  // The wide lane: one job at a time, each cooperatively executed by the
  // pool. Serializing wide jobs keeps their arena loops from fighting each
  // other for the same workers. Interactive wide jobs are popped before batch
  // ones, FIFO within a level.
  void wide_loop() {
    for (;;) {
      std::function<void()> job;
      {
        MutexLock lock(&mu_);
        while (!wide_stop_ && wide_queue_hi_.empty() && wide_queue_.empty()) {
          wide_cv_.wait(mu_);
        }
        if (wide_queue_hi_.empty() && wide_queue_.empty()) {
          return;  // stopped and drained
        }
        auto& q = wide_queue_hi_.empty() ? wide_queue_ : wide_queue_hi_;
        job = std::move(q.front());
        q.pop_front();
      }
      job();
    }
  }

  BatchLimits limits_;
  // Registry before the handles and the cache that resolve instruments in
  // it: members initialize in declaration order. Handles are plain atomics,
  // bumped lock-free from every worker.
  obs::Registry metrics_;
  obs::Histogram* h_queue_ = metrics_.histogram("msx_executor_queue_seconds");
  obs::Histogram* h_run_ = metrics_.histogram("msx_executor_run_seconds");
  obs::Histogram* h_job_ = metrics_.histogram("msx_job_seconds");
  obs::Counter* submitted_ =
      metrics_.counter("msx_executor_jobs_submitted_total");
  obs::Counter* completed_ =
      metrics_.counter("msx_executor_jobs_completed_total");
  obs::Counter* small_jobs_ = metrics_.counter("msx_executor_jobs_small_total");
  obs::Counter* wide_jobs_ = metrics_.counter("msx_executor_jobs_wide_total");
  obs::Counter* interactive_jobs_ =
      metrics_.counter("msx_executor_jobs_interactive_total");
  obs::Counter* rejected_ = metrics_.counter("msx_executor_rejected_total");
  obs::Counter* admission_blocks_ =
      metrics_.counter("msx_executor_admission_blocks_total");
  ThreadPool pool_;
  Cache cache_;

  mutable Mutex mu_{LockRank::kExecutor, "BatchExecutor::mu_"};
  CondVar idle_cv_;
  CondVar wide_cv_;
  CondVar admit_cv_;
  std::deque<std::function<void()>> wide_queue_hi_
      MSX_GUARDED_BY(mu_);  // Priority::kInteractive
  std::deque<std::function<void()>> wide_queue_ MSX_GUARDED_BY(mu_);
  bool wide_stop_ MSX_GUARDED_BY(mu_) = false;
  std::uint64_t outstanding_ MSX_GUARDED_BY(mu_) = 0;
  std::size_t pending_bytes_ MSX_GUARDED_BY(mu_) = 0;

  std::thread wide_thread_;
};

}  // namespace msx
