// MaskedClient — the unified, future-returning way to consume masked SpGEMM
// (ISSUE 5 tentpole).
//
// The repo has three lower-level entry points for C = M .* (A·B): the
// stateless masked_spgemm free function, MaskedPlan (manual reuse) and
// BatchExecutor::submit (concurrent, copy-at-submit). The client API folds
// them, and the shard fleet, behind one surface with one set of semantics:
//
//   MaskedClient  — constructed from a Backend; vends Sessions.
//   Session       — registers stationary operands once
//                   (register_structure(StructureSpec) -> StructureHandle,
//                   versioned) and then pipelines many products:
//                   submit(A[, M], handle, opts) returns std::future<Result>
//                   with bounded in-flight depth and per-request Priority.
//                   update(handle, EdgeDelta) applies an edge batch and
//                   returns the next-version handle — streaming graphs mutate
//                   in place instead of re-registering.
//   Result        — typed outcome (kOk / kOverloaded / kShardDown /
//                   kBadRequest / kInternalError / kStaleStructure) instead
//                   of an ad-hoc exception zoo; value() rethrows for callers
//                   that prefer exceptions.
//   Backend       — where the products actually run: LocalBackend
//                   (BatchExecutor + PlanCache in-process, zero-copy handle
//                   reuse) or ShardedBackend (pipelined connections to a
//                   shard fleet, request-id-matched completion, failover
//                   re-submission). One code path scales from one socket to
//                   many processes — the property the distributed SpGEMM
//                   literature (Buluç & Gilbert) attributes to handle-based
//                   pipelined interfaces.
//
// Results are bit-identical to direct masked_spgemm calls with the same
// options regardless of backend (tests/client/ holds the line).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/platform.hpp"
#include "common/thread_annotations.hpp"
#include "core/delta.hpp"
#include "core/options.hpp"
#include "matrix/csr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"  // Priority
#include "semiring/semirings.hpp"

namespace msx::client {

// Typed outcome taxonomy. Transport- and admission-level failures are data,
// not exceptions: a caller pipelining hundreds of futures must be able to
// inspect each outcome without try/catch scaffolding around every get().
enum class RequestStatus {
  kOk,
  kOverloaded,      // back-pressure: every eligible shard/executor refused
  kShardDown,       // no shard could serve it (all down, or client shut down)
  kBadRequest,      // validation failed (shapes, unknown structure, options)
  kInternalError,   // anything else thrown while serving
  kStaleStructure,  // submitted against a superseded structure version;
                    // retryable — resubmit with the handle update() returned
};

const char* to_string(RequestStatus s);

// One request's outcome: a matrix on kOk, a status + diagnostic otherwise.
template <class IT, class VT>
struct ClientResult {
  RequestStatus status = RequestStatus::kOk;
  std::string message;        // empty on kOk
  CSRMatrix<IT, VT> matrix;   // valid on kOk

  bool ok() const { return status == RequestStatus::kOk; }

  // The matrix, or a thrown std::runtime_error carrying the taxonomy — the
  // bridge for callers that prefer exceptions.
  CSRMatrix<IT, VT>& value() {
    if (!ok()) {
      throw std::runtime_error(std::string("masked client: ") +
                               to_string(status) +
                               (message.empty() ? "" : ": " + message));
    }
    return matrix;
  }
};

// Per-request options: how to compute (MaskedOptions) and how urgently
// (Priority — interactive requests jump batch queues end to end: the
// executor's lanes locally, the per-connection send queues remotely).
struct SubmitOptions {
  MaskedOptions masked;
  Priority priority = Priority::kBatch;
};

struct SessionConfig {
  // Bounded pipelining: submit() blocks once this many requests are in
  // flight, which keeps a fast producer from ballooning queues anywhere
  // downstream. 16–64 keeps a shard pipeline full without unbounded memory.
  std::size_t max_in_flight = 32;

  // Bounded registrations: 0 means unbounded (the default); otherwise the
  // session keeps at most this many structures live, evicting the least
  // recently used (touched by submit/update) with an unregister over the
  // wire. Submitting an evicted handle yields kBadRequest — size the quota
  // for the working set, not the churn.
  std::size_t max_structures = 0;
};

// Where products run. Implementations: LocalBackend (local_backend.hpp),
// ShardedBackend (sharded_backend.hpp). All methods are thread-safe.
template <class SR, class IT, class VT>
  requires Semiring<SR>
class Backend {
 public:
  using Mat = CSRMatrix<IT, VT>;
  using Result = ClientResult<IT, typename SR::value_type>;
  using Completion = std::function<void(Result)>;

  virtual ~Backend() = default;

  // Installs stationary operands {B[, M]} at version 1 and returns their id.
  // The backend holds the shared operands for zero-copy reuse (and, sharded,
  // ships them to a shard once per connection instead of once per product).
  // `replicas` is a placement hint for hot structures: a sharded backend
  // registers the structure's panels on that many distinct shards and
  // spreads (and fails over) panel work across the replica set; backends
  // without placement (local) ignore it.
  virtual std::uint64_t register_structure(std::shared_ptr<const Mat> b,
                                           std::shared_ptr<const Mat> m,
                                           int replicas = 1) = 0;
  virtual void release_structure(std::uint64_t structure_id) = 0;

  // Advances a registered structure to `new_b` (the delta already applied by
  // the caller — once, client-side) and returns the new version. The delta
  // rides along so backends can patch warm plans (locally via the plan
  // cache's lineage migration; sharded, it is what crosses the wire — the
  // shard re-applies it instead of receiving the matrix). `new_m` is the
  // structure's mask after the update (the same pointer as `new_b` for
  // self-masked structures, the old mask otherwise, null if none).
  virtual std::uint64_t update_structure(
      std::uint64_t structure_id,
      std::shared_ptr<const EdgeDelta<IT, VT>> delta,
      std::shared_ptr<const Mat> new_b, std::shared_ptr<const Mat> new_m) = 0;

  // Asynchronously computes C = M .* (A·B) against a registered structure at
  // a specific version. A submit whose version no longer matches the live
  // registration completes with kStaleStructure — never a result computed
  // against the wrong matrix generation. `mask_override` null means "use the
  // registered M". Returns immediately; `done` is invoked exactly once —
  // possibly on another thread, possibly before this call returns — with the
  // typed outcome. Never throws for per-request failures.
  virtual void submit(std::uint64_t structure_id, std::uint64_t version,
                      std::shared_ptr<const Mat> a,
                      std::shared_ptr<const Mat> mask_override,
                      const MaskedOptions& opts, Priority priority,
                      Completion done) = 0;

  // Blocks until every completion for requests submitted so far has been
  // delivered.
  virtual void drain() = 0;

  virtual std::string name() const = 0;

  // Prometheus text exposition for everything behind this backend: the
  // client-side registry plus whatever the backend can reach (the local
  // executor's registry; a sharded backend appends each live shard's page
  // fetched over the wire via kMetricsRequest). Best-effort: unreachable
  // shards are skipped, never an error.
  virtual std::string metrics() { return obs::Registry::global().render(); }
};

// What to register: the one way to describe a stationary-operand set. The
// previous API grew four register_structure overloads (shared_ptr pairs,
// value copies, implicit alias detection by address); the builder states the
// intent instead:
//
//   s.register_structure(StructureSpec(B))                    — no mask
//   s.register_structure(StructureSpec(B).mask(M))            — independent M
//   s.register_structure(StructureSpec(B).self_mask())        — M aliases B
//
// Aliasing is explicit: self_mask() shares the B pointer (k-truss registers
// its working matrix once and masks by it); mask(...) with a matrix that
// merely equals B still registers a distinct mask, like everywhere else in
// the library.
template <class IT, class VT>
class StructureSpec {
 public:
  using Mat = CSRMatrix<IT, VT>;

  explicit StructureSpec(std::shared_ptr<const Mat> b) : b_(std::move(b)) {
    check_arg(b_ != nullptr, "StructureSpec: null B");
  }
  // Convenience: copy a transient B into shared storage once, here.
  explicit StructureSpec(const Mat& b)
      : b_(std::make_shared<const Mat>(b)) {}

  StructureSpec& mask(std::shared_ptr<const Mat> m) {
    check_arg(m != nullptr, "StructureSpec::mask: null mask");
    m_ = std::move(m);
    return *this;
  }
  StructureSpec& mask(const Mat& m) {
    m_ = std::make_shared<const Mat>(m);
    return *this;
  }
  // The mask IS the stationary matrix (one registration, one shipment).
  StructureSpec& self_mask() {
    m_ = b_;
    return *this;
  }
  // Hot-structure replication: keep each panel of this structure live on
  // `r` distinct shards so 2D panel work spreads across (and fails over
  // within) the replica set. 1 (the default) means no replication; local
  // backends ignore the hint.
  StructureSpec& replicate(int r) {
    check_arg(r >= 1, "StructureSpec::replicate: replicas must be >= 1");
    replicas_ = r;
    return *this;
  }

  const std::shared_ptr<const Mat>& b() const { return b_; }
  const std::shared_ptr<const Mat>& mask_ptr() const { return m_; }
  int replicas() const { return replicas_; }

 private:
  std::shared_ptr<const Mat> b_;
  std::shared_ptr<const Mat> m_;
  int replicas_ = 1;
};

// A registered stationary-operand set at a specific version. A plain value:
// copies share the registration; release through the session that created
// it. Session::update() returns a NEW handle at the next version — the old
// handle keeps working as an identity (release/LRU) but its submits resolve
// to kStaleStructure once the update is live.
template <class IT, class VT>
class StructureHandle {
 public:
  StructureHandle() = default;

  std::uint64_t id() const { return id_; }
  std::uint64_t version() const { return version_; }
  bool valid() const { return id_ != 0; }
  bool has_mask() const { return m_ != nullptr; }
  const std::shared_ptr<const CSRMatrix<IT, VT>>& b() const { return b_; }
  const std::shared_ptr<const CSRMatrix<IT, VT>>& mask() const { return m_; }

 private:
  template <class, class, class>
  friend class Session;

  StructureHandle(std::uint64_t id, std::uint64_t version,
                  std::shared_ptr<const CSRMatrix<IT, VT>> b,
                  std::shared_ptr<const CSRMatrix<IT, VT>> m)
      : id_(id), version_(version), b_(std::move(b)), m_(std::move(m)) {}

  std::uint64_t id_ = 0;
  std::uint64_t version_ = 0;
  std::shared_ptr<const CSRMatrix<IT, VT>> b_;
  std::shared_ptr<const CSRMatrix<IT, VT>> m_;
};

// One caller's pipelined stream of products. Move-only. Destroying a session
// drains its in-flight requests and releases its registrations; the backend
// (shared with the client and any sibling sessions) stays up.
template <class SR, class IT, class VT>
  requires Semiring<SR>
class Session {
 public:
  using Mat = CSRMatrix<IT, VT>;
  using Result = ClientResult<IT, typename SR::value_type>;
  using Handle = StructureHandle<IT, VT>;

  Session(std::shared_ptr<Backend<SR, IT, VT>> backend, SessionConfig cfg)
      : backend_(std::move(backend)),
        cfg_(cfg),
        st_(std::make_shared<State>()) {
    check_arg(backend_ != nullptr, "Session: null backend");
    check_arg(cfg_.max_in_flight > 0, "Session: max_in_flight must be > 0");
  }

  Session(Session&&) = default;
  Session& operator=(Session&& other) {
    if (this != &other) {
      close();  // the replaced session's registrations must not leak
      backend_ = std::move(other.backend_);
      cfg_ = other.cfg_;
      st_ = std::move(other.st_);
      registered_ = std::move(other.registered_);
    }
    return *this;
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() { close(); }

  // Drains in-flight requests and releases every structure this session
  // registered. Idempotent; run by the destructor and by move-assignment
  // onto a live session.
  void close() {
    if (st_ == nullptr) return;  // moved-from or already closed
    drain();
    for (std::uint64_t id : registered_) backend_->release_structure(id);
    registered_.clear();
    st_.reset();
    backend_.reset();
  }

  // Registers stationary operands described by a StructureSpec — the single
  // entry point (the former shared_ptr/value/alias-sniffing overloads are
  // gone; see the README migration table). The handle starts at version 1;
  // update() advances it. If the session has a max_structures quota, the
  // least recently used live registration is evicted (released on the
  // backend, unregister on the wire) to make room.
  Handle register_structure(StructureSpec<IT, VT> spec) {
    check_arg(st_ != nullptr, "Session::register_structure: session closed");
    if (cfg_.max_structures > 0 &&
        registered_.size() >= cfg_.max_structures) {
      const std::uint64_t victim = registered_.front();  // front = LRU
      registered_.erase(registered_.begin());
      backend_->release_structure(victim);
    }
    auto b = spec.b();
    auto m = spec.mask_ptr();
    const std::uint64_t id =
        backend_->register_structure(b, m, spec.replicas());
    registered_.push_back(id);
    return Handle(id, /*version=*/1, std::move(b), std::move(m));
  }

  // Applies an edge insert/delete batch to the registered structure and
  // returns a NEW handle at the next version. The patched B is materialized
  // once, here; backends reuse it (locally) or re-apply the shipped delta
  // (sharded — the matrix never crosses the wire). A self-masked structure's
  // mask follows B. The old handle's in-flight and future submits resolve to
  // kStaleStructure once the update is live; results already computed against
  // the old version are unaffected. Throws std::invalid_argument for a
  // malformed delta (out-of-range endpoint, mismatched arrays) — the
  // structure is untouched in that case.
  Handle update(const Handle& h, const EdgeDelta<IT, VT>& delta) {
    check_arg(st_ != nullptr, "Session::update: session closed");
    check_arg(h.valid(), "Session::update: invalid structure handle");
    auto new_b = std::make_shared<const Mat>(apply_edge_delta(*h.b(), delta));
    auto new_m = h.mask() == h.b() ? new_b : h.mask();
    auto sd = std::make_shared<const EdgeDelta<IT, VT>>(delta);
    const std::uint64_t version =
        backend_->update_structure(h.id(), std::move(sd), new_b, new_m);
    touch(h.id());
    return Handle(h.id(), version, std::move(new_b), std::move(new_m));
  }

  // Drops the registration (backend-side resources freed); outstanding
  // submits against it should be drained first. The handle becomes invalid.
  void release(Handle& h) {
    if (!h.valid() || backend_ == nullptr) return;
    for (auto it = registered_.begin(); it != registered_.end(); ++it) {
      if (*it == h.id()) {
        registered_.erase(it);
        break;
      }
    }
    backend_->release_structure(h.id());
    h = Handle();
  }

  // Pipelines C = M .* (A·B) using the structure's registered mask. Blocks
  // only when max_in_flight requests are already outstanding. Invalid local
  // arguments surface as kBadRequest results (same taxonomy as remote
  // validation), not exceptions.
  std::future<Result> submit(std::shared_ptr<const Mat> a, const Handle& h,
                             const SubmitOptions& opts = {}) {
    return submit(std::move(a), nullptr, h, opts);
  }

  // Per-request mask form (BFS/BC: the visited set changes every level while
  // B stays put). `mask` may alias `a` or the registered B by shared_ptr
  // identity. Null mask means "use the registered M".
  std::future<Result> submit(std::shared_ptr<const Mat> a,
                             std::shared_ptr<const Mat> mask, const Handle& h,
                             const SubmitOptions& opts = {}) {
    if (st_ == nullptr) {
      return fail_now(RequestStatus::kBadRequest, "session closed");
    }
    if (!h.valid()) return fail_now(RequestStatus::kBadRequest,
                                    "invalid structure handle");
    if (a == nullptr) {
      return fail_now(RequestStatus::kBadRequest, "null A operand");
    }
    if (mask == nullptr && !h.has_mask()) {
      return fail_now(RequestStatus::kBadRequest,
                      "no mask: structure has none registered and none was "
                      "passed");
    }
    touch(h.id());
    {
      MutexLock lock(&st_->mu);
      while (st_->in_flight >= cfg_.max_in_flight) st_->cv.wait(st_->mu);
      ++st_->in_flight;
    }
    auto promise = std::make_shared<std::promise<Result>>();
    auto future = promise->get_future();
    auto st = st_;
    // Request-scoped tracing starts here: mint the trace id, record the root
    // span when the completion lands. Backends pick the context up from the
    // thread-local while this call is on the stack — no signature plumbing.
    const std::uint64_t t0 = obs::now_ns();
    obs::TraceId trace;
    std::uint64_t root_span = 0;
    if (obs::trace_enabled()) {
      trace = obs::mint_trace_id();
      root_span = obs::next_span_id();
    }
    obs::Histogram* h_req = h_request_;
    obs::ScopedTraceContext tctx({trace, root_span, "client"});
    backend_->submit(h.id(), h.version(), std::move(a), std::move(mask),
                     opts.masked, opts.priority,
                     [st, promise, trace, root_span, t0, h_req](Result r) {
                       const std::uint64_t dur = obs::now_ns() - t0;
                       h_req->observe_ns(dur);
                       if (trace.valid()) {
                         obs::record_span("client.submit", trace, root_span,
                                          /*parent_id=*/0, t0, dur, "client");
                         obs::maybe_log_slow(trace, dur);
                       }
                       promise->set_value(std::move(r));
                       {
                         MutexLock lock(&st->mu);
                         --st->in_flight;
                       }
                       st->cv.notify_all();
                     });
    return future;
  }

  // Convenience: copy a transient A (and mask) into shared storage.
  std::future<Result> submit(const Mat& a, const Handle& h,
                             const SubmitOptions& opts = {}) {
    return submit(std::make_shared<const Mat>(a), nullptr, h, opts);
  }

  // Blocks until every request submitted through this session has resolved.
  void drain() {
    if (st_ == nullptr) return;
    MutexLock lock(&st_->mu);
    while (st_->in_flight != 0) st_->cv.wait(st_->mu);
  }

  std::size_t in_flight() const {
    if (st_ == nullptr) return 0;
    MutexLock lock(&st_->mu);
    return st_->in_flight;
  }

  Backend<SR, IT, VT>& backend() { return *backend_; }

 private:
  struct State {
    mutable Mutex mu{LockRank::kClientSession, "Session::State::mu"};
    CondVar cv;
    std::size_t in_flight MSX_GUARDED_BY(mu) = 0;
  };

  // Marks a structure most-recently-used for the max_structures LRU quota
  // (registered_ is ordered LRU-front). No-op for ids already released.
  void touch(std::uint64_t id) {
    for (auto it = registered_.begin(); it != registered_.end(); ++it) {
      if (*it == id) {
        registered_.erase(it);
        registered_.push_back(id);
        return;
      }
    }
  }

  std::future<Result> fail_now(RequestStatus status, std::string message) {
    std::promise<Result> p;
    Result r;
    r.status = status;
    r.message = std::move(message);
    p.set_value(std::move(r));
    return p.get_future();
  }

  std::shared_ptr<Backend<SR, IT, VT>> backend_;
  SessionConfig cfg_;
  std::shared_ptr<State> st_;
  // End-to-end submit→completion latency as observed by this client process
  // (all sessions share the one global series). Registry entries are
  // immortal, so the pointer outlives every session.
  obs::Histogram* h_request_ =
      obs::Registry::global().histogram("msx_client_request_seconds");
  // Live registrations in LRU order (front = least recently used). Released
  // at session close; also the eviction order under max_structures.
  std::vector<std::uint64_t> registered_;
};

// The entry point: owns (a share of) a backend and vends sessions. Cheap to
// copy — copies share the backend.
template <class SR, class IT, class VT>
  requires Semiring<SR>
class MaskedClient {
 public:
  using Mat = CSRMatrix<IT, VT>;
  using Result = ClientResult<IT, typename SR::value_type>;

  explicit MaskedClient(std::shared_ptr<Backend<SR, IT, VT>> backend)
      : backend_(std::move(backend)) {
    check_arg(backend_ != nullptr, "MaskedClient: null backend");
  }

  Session<SR, IT, VT> open_session(SessionConfig cfg = {}) {
    return Session<SR, IT, VT>(backend_, cfg);
  }

  Backend<SR, IT, VT>& backend() { return *backend_; }
  std::shared_ptr<Backend<SR, IT, VT>> backend_ptr() { return backend_; }

  // Blocks until every request submitted through any session has resolved.
  void drain() { backend_->drain(); }

  // Prometheus text for the whole stack this client can see: client-side
  // series, the backend's own, and (sharded) each reachable shard's page.
  std::string metrics() { return backend_->metrics(); }

 private:
  std::shared_ptr<Backend<SR, IT, VT>> backend_;
};

}  // namespace msx::client
