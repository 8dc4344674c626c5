// Compile-time concurrency correctness layer (ISSUE 6 tentpole).
//
// Three pieces, stacked:
//
//   1. Capability macros for Clang's -Wthread-safety analysis. On Clang every
//      MSX_GUARDED_BY / MSX_REQUIRES / MSX_ACQUIRE contract is checked at
//      compile time — an access to a guarded member without its mutex held is
//      a build error under -Werror=thread-safety. On every other compiler the
//      macros expand to nothing, so gcc builds (and the ASan/TSan CI jobs)
//      are unaffected.
//
//   2. Annotated synchronization primitives: msx::Mutex (a capability),
//      msx::MutexLock (a scoped capability) and msx::CondVar (waits declare
//      MSX_REQUIRES on the mutex). These wrap std::mutex /
//      std::condition_variable with zero Release-mode overhead —
//      tests/runtime/test_lock_order.cpp pins sizeof(msx::Mutex) ==
//      sizeof(std::mutex) in Release — and are what lets the static analysis
//      see the library's locking at all: libstdc++'s primitives carry no
//      annotations.
//
//   3. A debug-build lock-order checker. The static analysis proves "right
//      mutex for this member" but cannot see cross-layer acquisition ORDER
//      (executor → plan cache → connection pool spans compilation units and
//      callbacks). Each Mutex therefore carries a LockRank; in debug builds
//      acquiring a ranked mutex while holding one of equal or higher rank
//      reports both hold sites and aborts (tests can intercept via
//      set_lock_order_handler). Release builds compile the checker away
//      entirely.
//
// The only MSX_NO_THREAD_SAFETY_ANALYSIS escapes in the library live in this
// header, on the wrapper bodies themselves — the analysis cannot see through
// std::mutex, so the wrappers assert their contracts rather than derive them.
#pragma once

#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <mutex>

// --- 1. capability macros ---------------------------------------------------

#if defined(__clang__)
#define MSX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MSX_THREAD_ANNOTATION(x)  // no-op on gcc/MSVC: contracts are Clang-checked
#endif

// A type whose instances are capabilities (mutexes).
#define MSX_CAPABILITY(x) MSX_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires a capability in its constructor and releases it
// in its destructor.
#define MSX_SCOPED_CAPABILITY MSX_THREAD_ANNOTATION(scoped_lockable)
// Member may only be read/written while holding the given mutex(es).
#define MSX_GUARDED_BY(x) MSX_THREAD_ANNOTATION(guarded_by(x))
// Pointer member: the pointee (not the pointer) is guarded.
#define MSX_PT_GUARDED_BY(x) MSX_THREAD_ANNOTATION(pt_guarded_by(x))
// Function contract: caller must hold the mutex(es).
#define MSX_REQUIRES(...) \
  MSX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function acquires / releases the mutex(es).
#define MSX_ACQUIRE(...) MSX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MSX_RELEASE(...) MSX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MSX_TRY_ACQUIRE(...) \
  MSX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// Function must be called WITHOUT the mutex(es) held (self-deadlock guard).
#define MSX_EXCLUDES(...) MSX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Function returns a reference to the given capability.
#define MSX_RETURN_CAPABILITY(x) MSX_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: disables the analysis inside one function body. Reserved for
// the wrapper implementations below; library code must not use it.
#define MSX_NO_THREAD_SAFETY_ANALYSIS \
  MSX_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- lock-order checking switch ---------------------------------------------

// On in debug builds (and overridable either way with -DMSX_LOCK_ORDER_CHECK).
// When off, msx::Mutex is layout- and code-identical to std::mutex.
#ifndef MSX_LOCK_ORDER_CHECK
#ifdef NDEBUG
#define MSX_LOCK_ORDER_CHECK 0
#else
#define MSX_LOCK_ORDER_CHECK 1
#endif
#endif

namespace msx {

// The library-wide lock hierarchy: a thread may only acquire a ranked mutex
// while every ranked mutex it already holds has a strictly LOWER rank.
// Numbers therefore encode the legal acquisition order, outermost layer
// first. Gaps are deliberate room for future layers. kUnranked mutexes
// (the default) are exempt — use a rank for every mutex that can nest.
//
// Documented in README "Concurrency invariants"; the regression suite
// (tests/runtime/test_lock_order.cpp) provokes an inversion to keep the
// checker honest.
enum class LockRank : std::uint32_t {
  kUnranked = 0,         // opts out of order checking (leaf/test mutexes)
  kClientSession = 10,   // client::Session in-flight gauge
  kClientBackend = 20,   // Local/ShardedBackend registry + connection state
  kShard = 40,           // ServiceShard connections/listeners + response writes
  kExecutor = 50,        // BatchExecutor admission + wide lane
  kThreadPool = 60,      // ThreadPool task queues
  kTaskState = 65,       // per-run helper/arena completion state
  kPlanCache = 70,       // PlanCache index + lease flags
  kKernelWorkspace = 80, // plan-kernel workspace free lists
  kAdaptiveFeedback = 85, // adaptive-engine feedback store (leaf; acquired
                          // between executes, never while a workspace or
                          // plan-cache lock is held)
  kTransport = 90,       // byte queues, loopback listeners (leaf I/O)
  kObsRegistry = 95,     // obs trace-ring + metrics registries (leaf; may be
                         // acquired while holding any of the above)
};

#if MSX_LOCK_ORDER_CHECK

// Everything the checker knows about one rank violation: where the already-
// held mutex was acquired and where the inverted acquisition is happening.
struct LockOrderViolation {
  const char* held_name;
  LockRank held_rank;
  const char* held_file;
  int held_line;
  const char* acquiring_name;
  LockRank acquiring_rank;
  const char* acquiring_file;
  int acquiring_line;
};

// Installed handler receives the violation instead of the default
// report-and-abort — this is how the regression test observes the seeded
// inversion without dying. Returns the previous handler; pass nullptr to
// restore the default. Not thread-safe against concurrent violations by
// design (it is a test seam).
using LockOrderHandler = void (*)(const LockOrderViolation&);
LockOrderHandler set_lock_order_handler(LockOrderHandler handler);

namespace detail {
// Per-thread held-mutex bookkeeping (thread_annotations.cpp).
void lock_order_on_acquire(const void* mutex, LockRank rank, const char* name,
                           const char* file, int line);
void lock_order_on_release(const void* mutex);
}  // namespace detail

#endif  // MSX_LOCK_ORDER_CHECK

// --- 2. annotated primitives ------------------------------------------------

// std::mutex with a statically checkable capability and (debug) a lock rank.
// Construct with the layer's LockRank so the debug checker can assert the
// cross-layer acquisition order; the name shows up in violation reports.
class MSX_CAPABILITY("mutex") Mutex {
 public:
#if MSX_LOCK_ORDER_CHECK
  explicit Mutex(LockRank rank = LockRank::kUnranked,
                 const char* name = "mutex")
      : rank_(rank), name_(name) {}
#else
  // Release: rank and name are compile-time discarded; the object is exactly
  // a std::mutex (test_lock_order.cpp static_asserts the layout).
  explicit Mutex(LockRank = LockRank::kUnranked, const char* = "mutex") {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // The wrapper bodies opt out of the analysis: std::mutex carries no
  // annotations, so the analysis could not verify that lock() acquires —
  // the MSX_ACQUIRE contract is the ground truth callers are checked against.
  void lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) MSX_ACQUIRE()
      MSX_NO_THREAD_SAFETY_ANALYSIS {
#if MSX_LOCK_ORDER_CHECK
    detail::lock_order_on_acquire(this, rank_, name_, file, line);
#else
    (void)file;
    (void)line;
#endif
    mu_.lock();
  }

  void unlock() MSX_RELEASE() MSX_NO_THREAD_SAFETY_ANALYSIS {
    mu_.unlock();
#if MSX_LOCK_ORDER_CHECK
    detail::lock_order_on_release(this);
#endif
  }

  // try_lock is exempt from order checking: a failed attempt cannot deadlock,
  // which is exactly why lock-free fallbacks use it.
  bool try_lock(const char* file = __builtin_FILE(),
                int line = __builtin_LINE()) MSX_TRY_ACQUIRE(true)
      MSX_NO_THREAD_SAFETY_ANALYSIS {
    const bool ok = mu_.try_lock();
#if MSX_LOCK_ORDER_CHECK
    if (ok) {
      detail::lock_order_on_acquire(this, LockRank::kUnranked, name_, file,
                                    line);
    }
#else
    (void)file;
    (void)line;
#endif
    return ok;
  }

  // For interop with std waiting machinery (CondVar below); using it to
  // bypass the annotated surface forfeits the static checking.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
#if MSX_LOCK_ORDER_CHECK
  LockRank rank_;
  const char* name_;
#endif
};

// Scoped acquisition — the annotated std::lock_guard. The analysis treats
// the constructor as acquiring `mu` and the destructor as releasing it, so a
// guarded member accessed inside the scope type-checks.
class MSX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) MSX_ACQUIRE(mu)
      : mu_(mu) {
    mu_->lock(file, line);
  }
  ~MutexLock() MSX_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable bound to msx::Mutex. Waits require the mutex by
// contract, which keeps guarded predicate reads inside the wait loop
// statically checked:
//
//   MutexLock lock(&mu_);
//   while (!stop_ && queue_.empty()) cv_.wait(mu_);   // members guarded by mu_
//
// (Explicit while-loops instead of the predicate overloads of
// std::condition_variable: the analysis does not propagate capabilities into
// lambdas, so a predicate lambda reading guarded members would not check.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` while blocked and reacquires it before
  // returning — the caller holds `mu` across the call as far as both the
  // static analysis and the lock-order checker are concerned (the checker's
  // held set is per-thread, so the handoff while blocked is invisible to it,
  // which matches the semantics: this thread cannot acquire anything while
  // parked).
  void wait(Mutex& mu) MSX_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native_handle(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  // Timed wait; returns std::cv_status::timeout when `rel` elapsed. Callers
  // re-check their predicate in a loop exactly as with wait().
  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& rel)
      MSX_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native_handle(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, rel);
    native.release();
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace msx
