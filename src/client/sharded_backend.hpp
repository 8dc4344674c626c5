// ShardedBackend — pipelined async client for a fleet of ServiceShards,
// and the one way to reach the fleet.
//
// Per shard there is ONE connection with a writer/reader thread pair:
//
//   * the writer drains a two-level (interactive-first) send queue of frames
//     — structure registrations, updates, submits, unregistrations — as
//     scatter-gather writes referencing the operands in place;
//   * the reader matches responses to requests by request id through the
//     connection's in-flight map, so completions resolve to the right future
//     no matter the arrival order.
//
// Stationary operands are the whole point: a registered structure's B (and
// optional M) is shipped and hashed once per shard connection
// (kRegisterRequest), after which each submit carries only what varies —
// often nothing but flags, when A and the mask alias B as in k-truss.
// Shipping every operand per call would serialize, checksum and
// re-fingerprint B on every product; at service scale that per-request
// O(nnz(B)) tax is what the session protocol removes, on top of keeping the
// shard's pipeline full.
//
// Failure semantics: when a connection dies (dial failure, transport error,
// garbled frame) the shard is marked down, its connection generation is
// bumped (invalidating that connection's registrations, which died with it
// server-side), and every request that was queued or in flight on it is
// re-dispatched to the next shard on the ring — re-registering structures
// there lazily — so a mid-pipeline shard kill loses nothing and duplicates
// nothing (each request completes exactly once; products are pure, so
// re-execution is safe). kOverloaded answers re-route the one request
// without marking the shard down. When every eligible shard is exhausted the
// request completes with kShardDown (or kOverloaded when back-pressure was
// the reason). Destroying the backend resolves any still-in-flight futures
// with kShardDown rather than leaving them hanging.
//
// Optional health probing (off by default): every probe_interval, down
// shards get a kMetricsRequest on a fresh dial and auto-rejoin the ring
// when their page comes back.
//
// 2D products (service/distributed.hpp): a submit whose estimated flops
// clear dist_flop_threshold (MaskedOptions::dist overrides) is cut into an
// A-row-panel × B-col-panel grid. Each column panel of B (and of the
// registered mask) is registered once per owning shard as an ordinary
// versioned structure; each (row, col) panel task is an ordinary pipelined
// submit whose mask is the registered panel mask row-windowed server-side
// (wire v4 kSubMaskRows). Panel results come back as zero-copy views over
// the receive payload and are merged client-side into the bit-identical
// full result. StructureSpec::replicate(R) keeps each hot panel live on R
// shards; panel placement spreads over the replica set weighted by the
// shard-reported execute-time EWMA, and mid-flight shard failure
// re-dispatches the lost panel tasks to surviving replicas through the
// same orphan machinery ordinary requests use.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "common/thread_annotations.hpp"
#include "core/flops.hpp"
#include "runtime/plan_cache.hpp"
#include "service/distributed.hpp"
#include "service/routing.hpp"  // ShardEndpoint, ConsistentHashRing
#include "service/shard.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"

namespace msx::client {

struct ShardedBackendConfig {
  // Ring points per shard. More vnodes = smoother key spread across shards
  // (64 keeps the max/min load ratio tight without bloating the ring).
  int vnodes = 64;
  // Health probing of down shards; zero disables (default — tests drive
  // probe_down_shards() explicitly).
  std::chrono::milliseconds probe_interval{0};
  // A submit whose estimated multiply count reaches this goes 2D
  // (MaskedOptions::dist/dist_flop_threshold override per request). ~64M
  // flops is where panel scatter overhead is clearly amortized on the RMAT
  // inputs the benches use.
  std::uint64_t dist_flop_threshold = 1ull << 26;
};

// Read view over the msx_backend_* counters and the per-shard EWMA state.
struct ShardedBackendStats {
  std::vector<std::uint64_t> routed;   // kOk completions per shard
  // Per-shard EWMA of shard-reported execute time (wire v4 exec_nanos),
  // 0.0 until the first kOk — what 2D panel placement weights by.
  std::vector<double> ewma_nanos;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;         // completions delivered (any status)
  std::uint64_t failover_resubmits = 0;
  std::uint64_t overload_reroutes = 0;
  std::uint64_t down_marks = 0;
  std::uint64_t probes = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t dist2d_products = 0;   // submits that went 2D
  std::uint64_t dist2d_panels = 0;     // panel tasks scattered for them
};

// Structure digest for routing points: hashes a matrix's pattern once so a
// registered B never needs re-hashing per submit (plan_fingerprint would
// walk B's arrays on every call). Requests with identical operand structure
// and options map to the same point — which is all consistent hashing
// needs — and the point is deterministic across client instances, so
// independent clients agree on shard affinity.
template <class IT, class VT>
std::uint64_t matrix_structure_digest(const CSRMatrix<IT, VT>& m,
                                      std::uint64_t seed) {
  std::uint64_t h =
      plan_hash_bytes(seed, m.rowptr().data(), m.rowptr().size_bytes());
  h = plan_hash_bytes(h, m.colidx().data(), m.colidx().size_bytes());
  const std::uint64_t dims[] = {static_cast<std::uint64_t>(m.nrows()),
                                static_cast<std::uint64_t>(m.ncols())};
  return plan_hash_bytes(h, dims, sizeof dims);
}

template <class SR, class IT, class VT>
  requires Semiring<SR>
class ShardedBackend final : public Backend<SR, IT, VT> {
 public:
  using Base = Backend<SR, IT, VT>;
  using Mat = typename Base::Mat;
  using VTC = typename SR::value_type;
  using Result = typename Base::Result;
  using Completion = typename Base::Completion;

  explicit ShardedBackend(std::vector<service::ShardEndpoint> endpoints,
                          ShardedBackendConfig cfg = {})
      : endpoints_(std::move(endpoints)),
        cfg_(cfg),
        ring_(endpoints_.size(), cfg.vnodes),
        down_(endpoints_.size(), 0),
        ewma_nanos_(endpoints_.size(), 0.0) {
    check_arg(!endpoints_.empty(), "ShardedBackend: no shard endpoints");
    metrics_.gauge_fn("msx_backend_inflight", "", [this] {
      MutexLock lock(&mu_);
      return static_cast<double>(inflight_total_);
    });
    conns_.reserve(endpoints_.size());
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      conns_.push_back(std::make_unique<Conn>());
      const std::string label = "shard=\"" + endpoints_[i].name + "\"";
      routed_.push_back(metrics_.counter("msx_backend_routed_total", label));
      metrics_.gauge_fn("msx_backend_ewma_nanos", label,
                        [this, i] { return stats().ewma_nanos[i]; });
      metrics_.gauge_fn("msx_backend_shard_up", label,
                        [this, i] { return is_down(i) ? 0.0 : 1.0; });
    }
    if (cfg_.probe_interval.count() > 0) {
      prober_ = std::thread([this] { probe_loop(); });
    }
  }

  ~ShardedBackend() override { shutdown(); }

  ShardedBackend(const ShardedBackend&) = delete;
  ShardedBackend& operator=(const ShardedBackend&) = delete;

  // --- Backend --------------------------------------------------------------

  std::uint64_t register_structure(std::shared_ptr<const Mat> b,
                                   std::shared_ptr<const Mat> m,
                                   int replicas = 1) override {
    check_arg(b != nullptr, "ShardedBackend: null B");
    check_arg(replicas >= 1, "ShardedBackend: replicas must be >= 1");
    auto s = std::make_shared<Structure>();
    s->id = next_structure_.fetch_add(1, std::memory_order_relaxed);
    s->b = std::move(b);
    s->m = std::move(m);
    s->replicas = replicas;
    s->b_digest = matrix_structure_digest(*s->b, kDigestSeedB);
    s->m_digest =
        s->m == nullptr
            ? 0
            : (s->m == s->b ? s->b_digest
                            : matrix_structure_digest(*s->m, kDigestSeedM));
    s->reg_gen.assign(endpoints_.size(), 0);  // gens start at 1: unregistered
    MutexLock lock(&mu_);
    structures_[s->id] = s;
    return s->id;
  }

  void release_structure(std::uint64_t structure_id) override {
    MutexLock lock(&mu_);
    const auto it = structures_.find(structure_id);
    if (it == structures_.end()) return;
    const auto s = it->second;
    structures_.erase(it);
    if (stopping_) return;
    enqueue_unregister_locked(*s);
    if (s->plan2d != nullptr) {
      for (const auto& p : s->plan2d->panels) enqueue_unregister_locked(*p);
    }
  }

  std::uint64_t update_structure(std::uint64_t structure_id,
                                 std::shared_ptr<const EdgeDelta<IT, VT>> delta,
                                 std::shared_ptr<const Mat> new_b,
                                 std::shared_ptr<const Mat> new_m) override {
    check_arg(new_b != nullptr, "ShardedBackend: null updated B");
    check_arg(delta != nullptr, "ShardedBackend: null delta");
    MutexLock lock(&mu_);
    const auto it = structures_.find(structure_id);
    check_arg(it != structures_.end(),
              "ShardedBackend: update for unknown structure id");
    Structure& s = *it->second;
    s.b = std::move(new_b);
    s.m = std::move(new_m);
    const std::uint64_t version = ++s.version;
    if (stopping_) return version;
    // Only the delta crosses the wire, and only to connections that hold the
    // old registration; everywhere else the next lazy registration ships the
    // already-updated B. Updates ride the interactive queue so no submit can
    // overtake them — a submit enqueued before this update may still be
    // overtaken (it sits in sendq_lo) and come back kStaleStructure, which is
    // exactly the race the typed status exists for.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if (c.running && s.reg_gen[i] == c.gen) {
        SendItem item;
        item.kind = SendItem::Kind::kUpdate;
        item.structure_id = structure_id;
        item.version = version;
        item.delta = delta;
        c.sendq_hi.push_back(std::move(item));
        c.cv.notify_all();
      }
    }
    update_panels_locked(s, delta, version);
    return version;
  }

  void submit(std::uint64_t structure_id, std::uint64_t version,
              std::shared_ptr<const Mat> a,
              std::shared_ptr<const Mat> mask_override,
              const MaskedOptions& opts, Priority priority,
              Completion done) override {
    reap_retired();
    std::shared_ptr<Structure> s;
    {
      MutexLock lock(&mu_);
      const auto it = structures_.find(structure_id);
      if (it != structures_.end()) s = it->second;
    }
    auto req = std::make_shared<Request>();
    req->done = std::move(done);
    if (obs::trace_enabled()) {
      const obs::TraceContext tc = obs::current_trace();
      req->trace = tc.id;
      req->trace_parent = tc.parent_span;
    }
    if (s == nullptr || a == nullptr) {
      Result r;
      r.status = RequestStatus::kBadRequest;
      r.message = s == nullptr
                      ? "unknown structure id " + std::to_string(structure_id)
                      : "null A operand";
      begin_request();
      finish(req, std::move(r));
      return;
    }
    req->structure = std::move(s);
    req->version = version;
    req->a = std::move(a);
    req->mask = std::move(mask_override);
    req->opts = opts;
    req->priority = priority;
    req->excluded.assign(endpoints_.size(), 0);
    req->point = route_point(*req);
    begin_request();
    if (try_submit_2d(req)) return;
    dispatch(req);
  }

  void drain() override {
    MutexLock lock(&mu_);
    while (inflight_total_ != 0) drain_cv_.wait(mu_);
  }

  std::string name() const override { return "sharded"; }

  // Client-side series, backend routing/failover series, then every
  // reachable shard's page fetched over the wire (kMetricsRequest on a
  // fresh dial). Down or unreachable shards are skipped — a metrics scrape
  // must never fail because part of the fleet is.
  std::string metrics() override {
    std::string out = obs::Registry::global().render() + metrics_.render();
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (is_down(i)) continue;
      auto page = service::probe_metrics(endpoints_[i]);
      if (page.has_value()) out += *page;
    }
    return out;
  }

  // --- fleet management -----------------------------------------------------

  void mark_down(std::size_t shard) {
    check_arg(shard < endpoints_.size(), "ShardedBackend: shard out of range");
    MutexLock lock(&mu_);
    mark_down_locked(shard);
  }

  void mark_up(std::size_t shard) {
    check_arg(shard < endpoints_.size(), "ShardedBackend: shard out of range");
    MutexLock lock(&mu_);
    down_[shard] = 0;
  }

  bool is_down(std::size_t shard) const {
    MutexLock lock(&mu_);
    return down_[shard] != 0;
  }

  std::size_t num_shards() const { return endpoints_.size(); }

  // One probing round over every down shard (kMetricsRequest on a fresh
  // dial, mark_up when the page comes back); public so tests and schedulers
  // can drive it without the background thread. Returns how many shards
  // rejoined.
  std::size_t probe_down_shards() {
    std::size_t rejoined = 0;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (!is_down(i)) continue;
      probes_->inc();
      if (!service::probe_metrics(endpoints_[i]).has_value()) continue;
      mark_up(i);
      ++rejoined;
      rejoins_->inc();
    }
    return rejoined;
  }

  ShardedBackendStats stats() const {
    ShardedBackendStats out;
    for (const obs::Counter* c : routed_) out.routed.push_back(c->value());
    out.submitted = submitted_->value();
    out.completed = completed_->value();
    out.failover_resubmits = failover_resubmits_->value();
    out.overload_reroutes = overload_reroutes_->value();
    out.down_marks = down_marks_->value();
    out.probes = probes_->value();
    out.rejoins = rejoins_->value();
    out.dist2d_products = dist2d_products_->value();
    out.dist2d_panels = dist2d_panels_->value();
    MutexLock lock(&mu_);
    out.ewma_nanos = ewma_nanos_;
    return out;
  }

  // Stops the connection threads and resolves every queued or in-flight
  // request with kShardDown — futures never hang across a client shutdown.
  // Idempotent; also run by the destructor.
  void shutdown() {
    std::vector<std::thread> threads;
    {
      MutexLock lock(&mu_);
      stopping_ = true;
      for (auto& cptr : conns_) {
        Conn& c = *cptr;
        if (c.stream != nullptr) c.stream->shutdown();
        c.cv.notify_all();
        if (c.writer.joinable()) threads.push_back(std::move(c.writer));
        if (c.reader.joinable()) threads.push_back(std::move(c.reader));
      }
      for (auto& r : retired_) threads.push_back(std::move(r.thread));
      retired_.clear();
    }
    probe_cv_.notify_all();
    if (prober_.joinable()) prober_.join();
    for (auto& t : threads) t.join();
    // Anything still queued or in flight resolves now — futures must not
    // hang across a client shutdown.
    std::vector<RequestPtr> leftovers;
    {
      MutexLock lock(&mu_);
      for (auto& cptr : conns_) {
        for (auto& [rid, r] : cptr->inflight) leftovers.push_back(r);
        cptr->inflight.clear();
        cptr->sendq_hi.clear();
        cptr->sendq_lo.clear();
      }
    }
    for (auto& r : leftovers) {
      Result err;
      err.status = RequestStatus::kShardDown;
      err.message = "client shut down with the request in flight";
      settle(r, std::move(err));
    }
  }

 private:
  static constexpr std::uint64_t kDigestSeedA = 0x636c69656e742d41ull;
  static constexpr std::uint64_t kDigestSeedB = 0x636c69656e742d42ull;
  static constexpr std::uint64_t kDigestSeedM = 0x636c69656e742d4dull;
  static constexpr std::uint64_t kPointSeed = 0x636c69656e742d70ull;
  static constexpr std::uint64_t kDigestSeed2D = 0x636c69656e742d32ull;

  struct Plan2D;

  struct Structure {
    std::uint64_t id = 0;
    std::shared_ptr<const Mat> b;
    std::shared_ptr<const Mat> m;  // null unless registered with a mask
    std::uint64_t version = 1;     // advanced by update_structure (mu_)
    // Digests are computed at registration and FIXED across updates: a
    // streaming structure keeps its shard affinity under churn instead of
    // migrating (and re-shipping B) every delta. Trade-off: a long-lived,
    // heavily mutated structure routes by its original pattern.
    std::uint64_t b_digest = 0;
    std::uint64_t m_digest = 0;
    // Per shard: the connection generation this structure was registered on
    // (registrations are connection-scoped server-side, so a bumped
    // generation means "register again before the next submit"). Guarded by
    // the owning backend's mu_ — a cross-object guard MSX_GUARDED_BY cannot
    // name, so the contract is enforced by this comment and the debug
    // lock-order checker's coverage of mu_ itself.
    std::vector<std::uint64_t> reg_gen;
    // Replica placement hint for 2D panels (StructureSpec::replicate).
    int replicas = 1;
    // The structure's 2D plan, built lazily by the first submit that goes 2D
    // and patched in lockstep with updates (mu_). Panel structures live only
    // here — never in structures_, so user ids cannot collide with them.
    std::shared_ptr<Plan2D> plan2d;
  };

  // A structure's column decomposition: C panel structures (B and mask
  // column slices registered on shards like any other structure) plus the
  // bounds that cut them. Row panels are per-submit (A varies); column
  // panels are per-structure, which is what makes them registrable.
  struct Plan2D {
    std::uint64_t version = 0;  // the structure version the panels mirror
    int requested_cols = 0;     // the panel count this plan was built for
    std::shared_ptr<const Mat> built_m;  // parent mask the slices came from
    std::vector<std::int64_t> col_start;
    std::vector<std::shared_ptr<Structure>> panels;
  };

  struct Gather2D;

  struct Request {
    std::shared_ptr<Structure> structure;
    std::uint64_t version = 0;  // the version this submit was issued against
    std::shared_ptr<const Mat> a;
    std::shared_ptr<const Mat> mask;  // null = use registered M
    MaskedOptions opts;
    Priority priority = Priority::kBatch;
    std::uint64_t point = 0;
    // Trace context captured at submit (thread-local from Session::submit);
    // rides the wire as the v5 kSubTraced triple so shard-side spans join
    // the client's timeline. Invalid when tracing is off.
    obs::TraceId trace;
    std::uint64_t trace_parent = 0;
    std::vector<char> excluded;  // shards that answered kOverloaded (mu_)
    bool overloaded = false;     // any overload reroute happened (mu_)
    Completion done;
    // --- 2D panel task state (unset on ordinary requests) ---
    std::shared_ptr<Gather2D> gather;  // non-null marks a panel task
    std::size_t slot = 0;              // its cell in the gather grid
    bool mask_rows = false;            // wire v4 kSubMaskRows window
    std::uint64_t mask_r0 = 0, mask_r1 = 0;
    // Replica set to place on (EWMA/load-scored); the ring walk takes over
    // when every replica is down or excluded, so failover never strands a
    // panel task.
    std::vector<int> candidates;
  };
  using RequestPtr = std::shared_ptr<Request>;

  // Client-side rendezvous of one 2D product's panel tasks. Slots are filled
  // from reader threads without a lock: each panel task settles exactly once
  // (the same exactly-once lifecycle ordinary requests have), writes only
  // its own slot, and the acq_rel decrement chain on `remaining` publishes
  // every slot (and any failure claim) to whichever thread decrements last
  // and runs the merge.
  struct Gather2D {
    RequestPtr parent;
    std::vector<std::int64_t> row_start;
    IT ncols = 0;
    struct PanelSlot {
      std::vector<std::uint8_t> payload;  // owns the bytes the view aliases
      service::CSRView<IT, VTC> view;
    };
    std::vector<PanelSlot> slots;
    std::atomic<int> remaining{0};
    // 0 = clean, 1 = failure claimed; the claimant alone writes the fields.
    std::atomic<int> fail_state{0};
    RequestStatus fail_status = RequestStatus::kOk;
    std::string fail_message;
  };

  struct SendItem {
    enum class Kind { kRegister, kSubmit, kUnregister, kUpdate };
    Kind kind = Kind::kSubmit;
    std::uint64_t rid = 0;  // submit
    RequestPtr req;         // submit
    // Register ships a SNAPSHOT of {B, M, version} taken under mu_ at
    // enqueue time, not the live Structure: an update landing between
    // enqueue and serialization must not change what this frame says (the
    // update frame queued behind it carries the change).
    std::shared_ptr<const Mat> reg_b;                  // register
    std::shared_ptr<const Mat> reg_m;                  // register (may be null)
    std::uint64_t version = 0;                         // register / update
    std::shared_ptr<const EdgeDelta<IT, VT>> delta;    // update
    std::uint64_t structure_id = 0;  // unregister / register / update
  };

  // One shard's connection state, all guarded by the OWNING backend's mu_
  // except the stream I/O itself (exactly one writer and one reader thread
  // use the stream concurrently, which Stream supports by contract). The
  // guard is cross-object, so MSX_GUARDED_BY cannot name it — the contract
  // lives in this comment; every access site already holds mu_.
  struct Conn {
    std::shared_ptr<service::Stream> stream;  // threads hold their own refs
    std::thread writer, reader;
    // Set by each thread as its very last action, so a retired handle with
    // the flag up can be joined without ever blocking (or self-joining from
    // a completion callback still running on that thread).
    std::shared_ptr<std::atomic<bool>> writer_exited, reader_exited;
    std::deque<SendItem> sendq_hi, sendq_lo;
    std::unordered_map<std::uint64_t, RequestPtr> inflight;
    std::uint64_t gen = 1;
    bool running = false;
    CondVar cv;  // writer wakeup, waits on the backend's mu_
  };

  // A previous connection incarnation's thread, parked until provably done.
  struct Retired {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> exited;
  };

  std::uint64_t route_point(const Request& req) const {
    const Structure& s = *req.structure;
    const bool a_is_b = req.a == s.b;
    const std::uint64_t a_digest =
        a_is_b ? s.b_digest : matrix_structure_digest(*req.a, kDigestSeedA);
    std::uint64_t m_digest;
    std::uint64_t m_source;  // keeps aliased and equal-structure masks apart
    if (req.mask == nullptr) {
      m_digest = s.m_digest;
      m_source = 0;
    } else if (req.mask == req.a) {
      m_digest = a_digest;
      m_source = 1;
    } else if (req.mask == s.b) {
      m_digest = s.b_digest;
      m_source = 2;
    } else {
      m_digest = matrix_structure_digest(*req.mask, kDigestSeedM);
      m_source = 3;
    }
    const MaskedOptions& o = req.opts;
    const std::uint64_t header[] = {
        a_digest,
        s.b_digest,
        m_digest,
        (a_is_b ? 1u : 0u) | (m_source << 1),
        static_cast<std::uint64_t>(o.algo),
        static_cast<std::uint64_t>(o.phases),
        static_cast<std::uint64_t>(o.kind),
        static_cast<std::uint64_t>(o.schedule),
        static_cast<std::uint64_t>(o.cost_model),
        static_cast<std::uint64_t>(o.chunk),
        static_cast<std::uint64_t>(o.threads),
        static_cast<std::uint64_t>(o.heap_ninspect),
        o.inner_gallop ? 1u : 0u,
        sizeof(IT),
    };
    return plan_hash_bytes(kPointSeed, header, sizeof header);
  }

  // Routes the request to the first eligible shard (down and per-request
  // excluded shards skipped), lazily dialing the connection and registering
  // the structure on it. Falls through shards as dials fail; completes the
  // request with a typed error when none is left.
  void dispatch(const RequestPtr& req) {
    Result err;
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (stopping_) {
          err.status = RequestStatus::kShardDown;
          err.message = "client shutting down";
          break;
        }
        std::vector<char> skip = down_;
        for (std::size_t i = 0; i < skip.size(); ++i) {
          skip[i] = static_cast<char>(skip[i] | req->excluded[i]);
        }
        int shard = -1;
        if (!req->candidates.empty()) {
          // 2D panel task: prefer the panel's replica set, scored by the
          // shard-reported execute-time EWMA scaled by queue depth, so a
          // slow or loaded replica sheds panel work to its peers.
          double best = 0.0;
          for (const int cand : req->candidates) {
            const auto ci = static_cast<std::size_t>(cand);
            if (skip[ci]) continue;
            const double e = ewma_nanos_[ci] > 0.0 ? ewma_nanos_[ci] : 1.0;
            const double score =
                e * (1.0 + static_cast<double>(conns_[ci]->inflight.size()));
            if (shard < 0 || score < best) {
              best = score;
              shard = cand;
            }
          }
        }
        // Replica set exhausted (or an ordinary request): walk the ring. A
        // panel spilling off its replicas re-registers lazily wherever it
        // lands, so failover loses nothing.
        if (shard < 0) shard = ring_.pick(req->point, skip);
        if (shard < 0) {
          err.status = req->overloaded ? RequestStatus::kOverloaded
                                       : RequestStatus::kShardDown;
          err.message = req->overloaded
                            ? "every eligible shard is overloaded or down"
                            : "no shard could serve the request";
          break;
        }
        const auto i = static_cast<std::size_t>(shard);
        if (!ensure_conn_locked(i)) continue;  // dial failed -> marked down
        Conn& c = *conns_[i];
        Structure& s = *req->structure;
        if (s.reg_gen[i] != c.gen) {
          // First sight of this structure on this connection: enqueue its
          // registration ahead of the submit. Registrations ride the
          // interactive queue so no submit (either level) can overtake them.
          s.reg_gen[i] = c.gen;
          SendItem reg;
          reg.kind = SendItem::Kind::kRegister;
          reg.structure_id = s.id;
          reg.reg_b = s.b;
          reg.reg_m = s.m;
          reg.version = s.version;
          c.sendq_hi.push_back(std::move(reg));
        }
        const std::uint64_t rid =
            next_rid_.fetch_add(1, std::memory_order_relaxed);
        c.inflight[rid] = req;
        SendItem item;
        item.kind = SendItem::Kind::kSubmit;
        item.rid = rid;
        item.req = req;
        (req->priority == Priority::kInteractive ? c.sendq_hi : c.sendq_lo)
            .push_back(std::move(item));
        c.cv.notify_all();
        return;
      }
    }
    settle(req, std::move(err));
  }

  // Dials and starts the connection's thread pair if it is not running.
  // Dial failure marks the shard down and returns false. Endpoint dials are
  // expected to be fast (loopback/local sockets); a slow WAN dial would
  // briefly hold the backend mutex.
  bool ensure_conn_locked(std::size_t shard) MSX_REQUIRES(mu_) {
    Conn& c = *conns_[shard];
    if (c.running) return true;
    // Previous incarnation's threads have exited (or will momentarily);
    // their handles are parked and reaped once their exit flag is up
    // (reap_retired), or at shutdown at the latest.
    if (c.writer.joinable()) {
      retired_.push_back(Retired{std::move(c.writer), c.writer_exited});
    }
    if (c.reader.joinable()) {
      retired_.push_back(Retired{std::move(c.reader), c.reader_exited});
    }
    std::unique_ptr<service::Stream> stream;
    try {
      stream = endpoints_[shard].connect();
    } catch (const service::TransportError&) {
      stream = nullptr;
    }
    if (stream == nullptr) {
      mark_down_locked(shard);
      return false;
    }
    c.stream = std::shared_ptr<service::Stream>(std::move(stream));
    c.running = true;
    const std::uint64_t gen = c.gen;
    auto s = c.stream;
    c.writer_exited = std::make_shared<std::atomic<bool>>(false);
    c.reader_exited = std::make_shared<std::atomic<bool>>(false);
    c.writer = std::thread([this, shard, gen, s, done = c.writer_exited] {
      writer_loop(shard, gen, *s);
      done->store(true, std::memory_order_release);
    });
    c.reader = std::thread([this, shard, gen, s, done = c.reader_exited] {
      reader_loop(shard, gen, *s);
      done->store(true, std::memory_order_release);
    });
    return true;
  }

  // Joins retired connection threads that have provably exited, so a
  // flapping shard cannot accumulate zombie handles for the backend's
  // lifetime. Called from submit(); shutdown joins the rest regardless.
  void reap_retired() {
    std::vector<Retired> done;
    {
      MutexLock lock(&mu_);
      for (auto it = retired_.begin(); it != retired_.end();) {
        if (it->exited->load(std::memory_order_acquire)) {
          done.push_back(std::move(*it));
          it = retired_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& r : done) r.thread.join();
  }

  void writer_loop(std::size_t shard, std::uint64_t gen, service::Stream& s) {
    for (;;) {
      SendItem item;
      std::shared_ptr<const Mat> b;  // a submit's registered B (mu_-guarded)
      {
        MutexLock lock(&mu_);
        Conn& c = *conns_[shard];
        while (!stopping_ && c.gen == gen && c.sendq_hi.empty() &&
               c.sendq_lo.empty()) {
          c.cv.wait(mu_);
        }
        if (stopping_ || c.gen != gen) return;
        auto& q = c.sendq_hi.empty() ? c.sendq_lo : c.sendq_hi;
        item = std::move(q.front());
        q.pop_front();
        if (item.kind == SendItem::Kind::kSubmit) b = item.req->structure->b;
      }
      try {
        switch (item.kind) {
          case SendItem::Kind::kRegister: {
            service::GatherPayload g;
            service::encode_register_parts(g, item.structure_id, item.version,
                                           *item.reg_b, item.reg_m.get());
            send_frame_parts(s, service::MessageType::kRegisterRequest, 0, g);
            break;
          }
          case SendItem::Kind::kUpdate: {
            service::GatherPayload g;
            service::encode_update_parts(g, item.structure_id, item.version,
                                         *item.delta);
            send_frame_parts(s, service::MessageType::kUpdateRequest, 0, g);
            break;
          }
          case SendItem::Kind::kUnregister: {
            const auto payload = service::encode_unregister(item.structure_id);
            send_frame(s, service::MessageType::kUnregisterRequest, 0,
                       payload);
            break;
          }
          case SendItem::Kind::kSubmit: {
            const std::uint64_t t0 = obs::now_ns();
            service::GatherPayload g;
            build_submit(g, *item.req, b);
            send_frame_parts(s, service::MessageType::kSubmitRequest,
                             item.rid, g);
            if (obs::trace_enabled() && item.req->trace.valid()) {
              // Serialization + socket write of this request's frame.
              obs::record_span("wire.send", item.req->trace,
                               obs::next_span_id(), item.req->trace_parent,
                               t0, obs::now_ns() - t0, "client");
            }
            break;
          }
        }
      } catch (const service::TransportError&) {
        conn_failed(shard, gen);
        return;
      } catch (const service::WireError&) {
        conn_failed(shard, gen);
        return;
      }
    }
  }

  // `b` is the structure's registered B, read under mu_ by the caller
  // (update_structure swaps it concurrently).
  void build_submit(service::GatherPayload& g, const Request& req,
                    const std::shared_ptr<const Mat>& b) {
    std::uint8_t flags = 0;
    const bool a_is_b = req.a == b;
    if (a_is_b) flags |= service::kSubAIsB;
    const Mat* inline_a = a_is_b ? nullptr : req.a.get();
    const Mat* inline_m = nullptr;
    if (req.mask == nullptr) {
      flags |= service::kSubMRegistered;
    } else if (req.mask == req.a) {
      flags |= service::kSubMIsA;
    } else if (req.mask == b) {
      flags |= service::kSubMIsB;
    } else {
      inline_m = req.mask.get();
    }
    if (req.priority == Priority::kInteractive) {
      flags |= service::kSubInteractive;
    }
    if (req.mask_rows) flags |= service::kSubMaskRows;
    if (req.trace.valid()) flags |= service::kSubTraced;
    service::encode_submit_parts(g, req.structure->id, req.version, flags,
                                 inline_a, inline_m, req.opts, req.mask_r0,
                                 req.mask_r1, req.trace.hi, req.trace.lo,
                                 req.trace_parent);
  }

  void reader_loop(std::size_t shard, std::uint64_t gen, service::Stream& s) {
    service::FrameHeader header;
    std::vector<std::uint8_t> payload;
    try {
      while (recv_frame(s, header, payload)) {
        if (header.type != service::MessageType::kResponse) break;
        // Peek the matched request first — without consuming it — to pick
        // the decode path; decoding happens before the erase so a garbled
        // payload fails over the request instead of losing it.
        RequestPtr req;
        {
          MutexLock lock(&mu_);
          Conn& c = *conns_[shard];
          if (c.gen != gen) return;
          const auto it = c.inflight.find(header.request_id);
          if (it == c.inflight.end()) break;  // protocol violation
          req = it->second;
        }
        const bool is_panel = req->gather != nullptr;
        service::WireResponse<IT, VTC> resp;
        service::WireResponseView<IT, VTC> view;
        if (is_panel) {
          // Zero-copy receive: the panel result stays spans over the payload
          // buffer, which moves wholesale into the gather slot on kOk — the
          // merge reads it in place, no per-panel matrix materialization.
          view = service::decode_response_view<IT, VTC>(payload);
          resp.status = view.status;
          resp.exec_nanos = view.exec_nanos;
          resp.message = view.message;
        } else {
          resp = service::decode_response<IT, VTC>(payload);
        }
        {
          MutexLock lock(&mu_);
          Conn& c = *conns_[shard];
          if (c.gen != gen) return;
          const auto it = c.inflight.find(header.request_id);
          if (it == c.inflight.end()) break;  // protocol violation
          c.inflight.erase(it);
        }
        switch (resp.status) {
          case service::WireStatus::kOk: {
            routed_[shard]->inc();
            {
              MutexLock lock(&mu_);
              service::record_ewma_locked(ewma_nanos_[shard],
                                          resp.exec_nanos);
            }
            if (is_panel) {
              auto& slot = req->gather->slots[req->slot];
              slot.payload = std::move(payload);  // the view aliases it
              slot.view = view.result;
              panel_done(req->gather);
            } else {
              Result r;
              r.matrix = std::move(resp.result);
              finish(req, std::move(r));
            }
            break;
          }
          case service::WireStatus::kOverloaded: {
            // Back-pressure: spill this one request to the next shard; the
            // overloaded shard keeps its ring position and affinity.
            overload_reroutes_->inc();
            {
              MutexLock lock(&mu_);
              req->excluded[shard] = 1;
              req->overloaded = true;
            }
            dispatch(req);
            break;
          }
          case service::WireStatus::kBadRequest: {
            Result r;
            r.status = RequestStatus::kBadRequest;
            r.message = std::move(resp.message);
            settle(req, std::move(r));
            break;
          }
          case service::WireStatus::kInternalError: {
            Result r;
            r.status = RequestStatus::kInternalError;
            r.message = std::move(resp.message);
            settle(req, std::move(r));
            break;
          }
          case service::WireStatus::kStaleStructure: {
            // Every shard would give the same answer (the update fanned out
            // ahead of us): deliver, don't reroute. The caller retries with
            // the handle update() returned. For a panel task this fails the
            // whole gather the same way — the parent resolves
            // kStaleStructure once the remaining panels settle.
            Result r;
            r.status = RequestStatus::kStaleStructure;
            r.message = std::move(resp.message);
            settle(req, std::move(r));
            break;
          }
        }
      }
      conn_failed(shard, gen);  // EOF or protocol violation
    } catch (const service::TransportError&) {
      conn_failed(shard, gen);
    } catch (const service::WireError&) {
      conn_failed(shard, gen);
    }
  }

  // A connection died: mark the shard down, bump the generation (server-side
  // registrations died with the connection) and re-dispatch everything that
  // was queued or awaiting a response on it. Exactly one of the connection's
  // threads wins the generation check; the other exits quietly.
  void conn_failed(std::size_t shard, std::uint64_t gen) {
    std::vector<RequestPtr> orphans;
    bool was_stopping = false;
    {
      MutexLock lock(&mu_);
      Conn& c = *conns_[shard];
      if (c.gen != gen) return;  // stale notification
      ++c.gen;
      c.running = false;
      if (c.stream != nullptr) c.stream->shutdown();  // wake the peer thread
      c.stream.reset();
      mark_down_locked(shard);
      orphans.reserve(c.inflight.size());
      for (auto& [rid, r] : c.inflight) orphans.push_back(r);
      // Queued submits are a subset of the in-flight map (inserted at
      // dispatch); registrations and unregistrations are connection-scoped
      // and simply die with it.
      c.inflight.clear();
      c.sendq_hi.clear();
      c.sendq_lo.clear();
      c.cv.notify_all();
      was_stopping = stopping_;
      // Orphans failed at shutdown are not re-submissions — only count the
      // ones that actually go back out.
      if (!was_stopping) failover_resubmits_->inc(orphans.size());
    }
    for (auto& r : orphans) {
      if (was_stopping) {
        Result err;
        err.status = RequestStatus::kShardDown;
        err.message = "client shutting down";
        settle(r, std::move(err));
      } else {
        // Panel tasks re-dispatch like any orphan — their replica candidates
        // skip the shard just marked down, so a mid-scatter shard kill moves
        // the lost panels to surviving replicas with no loss or duplication.
        dispatch(r);
      }
    }
  }

  // Counts a request in and holds drain() until it finishes.
  void begin_request() {
    submitted_->inc();
    MutexLock lock(&mu_);
    ++inflight_total_;
  }

  // Delivers the outcome (outside any lock) and settles the drain gauge.
  // Parents and ordinary requests only — panel tasks go through settle().
  // The completion is counted before inflight_total_ drops, so whoever
  // drain() releases reads it.
  void finish(const RequestPtr& req, Result r) {
    req->done(std::move(r));
    completed_->inc();
    {
      MutexLock lock(&mu_);
      --inflight_total_;
    }
    drain_cv_.notify_all();
  }

  void mark_down_locked(std::size_t shard) MSX_REQUIRES(mu_) {
    if (down_[shard]) return;
    down_[shard] = 1;
    down_marks_->inc();
  }

  // The one terminal-outcome entry point that works for both kinds of
  // request: ordinary requests (and 2D parents) deliver their completion; a
  // panel task folds the outcome into its gather instead — only the parent
  // counts toward completed_/inflight_total_, so drain() waits for whole
  // products, not panel fragments.
  void settle(const RequestPtr& req, Result r) {
    if (req->gather == nullptr) {
      finish(req, std::move(r));
      return;
    }
    auto& g = *req->gather;
    int expect = 0;
    if (g.fail_state.compare_exchange_strong(expect, 1,
                                             std::memory_order_acq_rel)) {
      // First failure wins; its writes are published to the merging thread
      // by the acq_rel decrement chain on `remaining`.
      g.fail_status = r.status;
      g.fail_message = std::move(r.message);
    }
    panel_done(req->gather);
  }

  // One panel task has settled (result stored or failure recorded); the last
  // one to do so completes the parent.
  void panel_done(const std::shared_ptr<Gather2D>& g) {
    if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      gather_complete(g);
    }
  }

  // Every panel has settled: merge the grid (reading the zero-copy views in
  // place) or surface the first failure. Runs on whichever thread settled
  // last, outside any lock — merge is the only client-side compute of the
  // 2D path.
  void gather_complete(const std::shared_ptr<Gather2D>& g) {
    Result r;
    if (g->fail_state.load(std::memory_order_acquire) != 0) {
      r.status = g->fail_status;
      r.message = g->fail_message;
    } else {
      const std::uint64_t t_merge = obs::now_ns();
      std::vector<service::CSRView<IT, VTC>> views;
      views.reserve(g->slots.size());
      for (const auto& slot : g->slots) views.push_back(slot.view);
      try {
        r.matrix = service::merge_panel_grid<IT, VTC>(
            std::span<const service::CSRView<IT, VTC>>(views),
            std::span<const std::int64_t>(g->row_start), g->ncols);
      } catch (const std::exception& e) {
        r.status = RequestStatus::kInternalError;
        r.message = std::string("2D merge failed: ") + e.what();
      }
      const RequestPtr& parent = g->parent;
      if (obs::trace_enabled() && parent->trace.valid()) {
        obs::record_span("2d.merge", parent->trace, obs::next_span_id(),
                         parent->trace_parent, t_merge,
                         obs::now_ns() - t_merge, "client");
      }
    }
    finish(g->parent, std::move(r));
  }

  // Decides whether this submit runs as a 2D panel grid and, if so,
  // scatters it; false falls through to the ordinary single-shard path.
  // Eligibility: an eligible fleet (>= 2 shards), the registered mask in
  // use (panel masks are column slices of it; a per-request mask override
  // would have to be sliced and shipped per panel, which defeats the
  // registration), a version-current structure, and — under kAuto — an
  // estimated multiply count clearing the threshold (one O(nnz(A)) sweep,
  // the same cost row planning pays anyway).
  bool try_submit_2d(const RequestPtr& req) {
    const MaskedOptions& o = req->opts;
    if (o.dist == Dist2D::kNever || endpoints_.size() < 2) return false;
    if (req->mask != nullptr) return false;
    Structure& s = *req->structure;
    std::shared_ptr<const Mat> b;
    std::shared_ptr<const Mat> m;
    std::shared_ptr<Plan2D> plan;
    std::uint64_t version;
    int replicas;
    {
      MutexLock lock(&mu_);
      b = s.b;
      m = s.m;
      version = s.version;
      plan = s.plan2d;
      replicas = s.replicas;
    }
    if (m == nullptr) return false;
    // Stale or invalid submits take the ordinary path so the shard's answer
    // (kStaleStructure / kBadRequest) keeps its exact single-shard wording.
    if (req->version != version) return false;
    if (req->a->ncols() != b->nrows()) return false;
    if (o.dist == Dist2D::kAuto) {
      const std::uint64_t threshold = o.dist_flop_threshold != 0
                                          ? o.dist_flop_threshold
                                          : cfg_.dist_flop_threshold;
      if (total_flops(*req->a, *b) < threshold) return false;
    }
    const int want_c =
        o.dist_col_panels > 0
            ? o.dist_col_panels
            : static_cast<int>(std::min<std::size_t>(endpoints_.size(), 4));
    const int want_r =
        o.dist_row_panels > 0
            ? o.dist_row_panels
            : std::max(1, static_cast<int>(endpoints_.size()) / want_c);
    if (plan == nullptr || plan->version != version ||
        plan->requested_cols != want_c) {
      // Build outside the lock (slicing is the expensive part), install
      // under it; a racing submit's plan wins if it got there first.
      auto fresh = build_plan2d(b, m, version, s.b_digest, s.m_digest,
                                replicas, want_c);
      MutexLock lock(&mu_);
      if (s.version != version) return false;  // updated underneath us
      if (s.plan2d != nullptr && s.plan2d->version == version &&
          s.plan2d->requested_cols == want_c) {
        plan = s.plan2d;
      } else {
        if (s.plan2d != nullptr) {
          for (const auto& p : s.plan2d->panels) {
            enqueue_unregister_locked(*p);
          }
        }
        s.plan2d = fresh;
        plan = std::move(fresh);
      }
    }
    const std::vector<std::int64_t> row_start =
        service::plan_row_panels(*req->a, *b, want_r);
    const std::size_t nr = row_start.size() - 1;
    const std::size_t nc = plan->panels.size();
    if (nr * nc < 2) return false;  // degenerate grid: not worth scattering

    auto g = std::make_shared<Gather2D>();
    g->parent = req;
    g->row_start = row_start;
    g->ncols = b->ncols();
    g->slots.resize(nr * nc);
    g->remaining.store(static_cast<int>(nr * nc),
                       std::memory_order_relaxed);
    dist2d_products_->inc();
    dist2d_panels_->inc(nr * nc);
    const std::uint64_t t_scatter = obs::now_ns();
    for (std::size_t r = 0; r < nr; ++r) {
      // One row slice of A per row panel, shared across its column panels.
      auto a_panel = std::make_shared<const Mat>(
          service::slice_rows(*req->a, row_start[r], row_start[r + 1]));
      for (std::size_t j = 0; j < nc; ++j) {
        const auto& panel = plan->panels[j];
        auto child = std::make_shared<Request>();
        child->structure = panel;
        child->version = version;
        child->a = a_panel;
        child->opts = o;
        child->priority = req->priority;
        // Panel tasks share the parent's trace and nest under its root span
        // directly (they run long after scatter returns).
        child->trace = req->trace;
        child->trace_parent = req->trace_parent;
        child->excluded.assign(endpoints_.size(), 0);
        child->mask_rows = true;
        child->mask_r0 = static_cast<std::uint64_t>(row_start[r]);
        child->mask_r1 = static_cast<std::uint64_t>(row_start[r + 1]);
        // Affinity point: same panel + same row window -> same shard, so a
        // repeated 2D product hits warm plans panel-for-panel.
        const std::uint64_t hdr[] = {panel->b_digest, child->mask_r0,
                                     child->mask_r1,
                                     static_cast<std::uint64_t>(o.algo)};
        child->point = plan_hash_bytes(kPointSeed, hdr, sizeof hdr);
        child->candidates =
            service::replica_shards(ring_, panel->b_digest, panel->replicas);
        child->gather = g;
        child->slot = r * nc + j;
        dispatch(child);
      }
    }
    if (obs::trace_enabled() && req->trace.valid()) {
      // Row slicing + panel-task dispatch for the whole grid.
      obs::record_span("2d.scatter", req->trace, obs::next_span_id(),
                       req->trace_parent, t_scatter,
                       obs::now_ns() - t_scatter, "client");
    }
    return true;
  }

  // Cuts B (and the mask) into column panels and wraps each pair as a panel
  // Structure with its own synthetic digest, ready to register on shards
  // like any other structure. Self-masked parents keep the alias: the panel
  // mask IS the panel B pointer, so registration ships one matrix.
  std::shared_ptr<Plan2D> build_plan2d(const std::shared_ptr<const Mat>& b,
                                       const std::shared_ptr<const Mat>& m,
                                       std::uint64_t version,
                                       std::uint64_t b_digest,
                                       std::uint64_t m_digest, int replicas,
                                       int ncolpanels) {
    auto plan = std::make_shared<Plan2D>();
    plan->version = version;
    plan->requested_cols = ncolpanels;
    plan->built_m = m;
    plan->col_start = service::plan_col_panels(*b, ncolpanels);
    const std::size_t nc = plan->col_start.size() - 1;
    plan->panels.reserve(nc);
    for (std::size_t j = 0; j < nc; ++j) {
      const std::int64_t lo = plan->col_start[j];
      const std::int64_t hi = plan->col_start[j + 1];
      auto p = std::make_shared<Structure>();
      p->id = next_structure_.fetch_add(1, std::memory_order_relaxed);
      p->b = std::make_shared<const Mat>(service::slice_cols(*b, lo, hi));
      p->m = m == b ? p->b
                    : std::make_shared<const Mat>(
                          service::slice_cols(*m, lo, hi));
      p->version = version;
      const std::uint64_t salt[] = {b_digest, static_cast<std::uint64_t>(j),
                                    static_cast<std::uint64_t>(lo),
                                    static_cast<std::uint64_t>(hi)};
      p->b_digest = plan_hash_bytes(kDigestSeed2D, salt, sizeof salt);
      p->m_digest =
          m == b ? p->b_digest : plan_hash_bytes(p->b_digest, &m_digest,
                                                 sizeof m_digest);
      p->reg_gen.assign(endpoints_.size(), 0);
      p->replicas = replicas;
      plan->panels.push_back(std::move(p));
    }
    return plan;
  }

  // Keeps a 2D plan's panels coherent with a parent update: each panel has
  // the COLUMN SLICE of the delta applied locally — equivalent to
  // re-slicing the new B, at delta cost instead of O(nnz) — and fanned out
  // to every connection that holds the panel. Panels the delta never
  // touches still get their (empty) slice so every panel's version advances
  // in lockstep with the parent; a submit racing this update gets
  // kStaleStructure from whichever panel shard sees it late, never a
  // mixed-version merge. A mask replaced wholesale (neither self-masked nor
  // carried over) cannot be described by the delta — the plan is dropped
  // and the next 2D submit rebuilds from the new pair.
  void update_panels_locked(
      Structure& s, const std::shared_ptr<const EdgeDelta<IT, VT>>& delta,
      std::uint64_t version) MSX_REQUIRES(mu_) {
    if (s.plan2d == nullptr) return;
    Plan2D& plan = *s.plan2d;
    const bool self_masked = s.m == s.b;
    if (!self_masked && s.m != plan.built_m) {
      for (const auto& p : plan.panels) enqueue_unregister_locked(*p);
      s.plan2d = nullptr;
      return;
    }
    for (std::size_t j = 0; j < plan.panels.size(); ++j) {
      Structure& p = *plan.panels[j];
      auto sliced = std::make_shared<const EdgeDelta<IT, VT>>(
          service::slice_delta_cols(*delta, plan.col_start[j],
                                    plan.col_start[j + 1]));
      const bool panel_self = p.m == p.b;
      auto nb = std::make_shared<const Mat>(apply_edge_delta(*p.b, *sliced));
      p.b = nb;
      if (panel_self) p.m = std::move(nb);
      p.version = version;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = *conns_[i];
        if (c.running && p.reg_gen[i] == c.gen) {
          SendItem item;
          item.kind = SendItem::Kind::kUpdate;
          item.structure_id = p.id;
          item.version = version;
          item.delta = sliced;
          c.sendq_hi.push_back(std::move(item));
          c.cv.notify_all();
        }
      }
    }
    plan.version = version;
    if (self_masked) plan.built_m = s.m;
  }

  // Queues an unregister on every connection that holds this structure's
  // registration (release, panel teardown, plan invalidation).
  void enqueue_unregister_locked(const Structure& st) MSX_REQUIRES(mu_) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if (c.running && st.reg_gen[i] == c.gen) {
        SendItem item;
        item.kind = SendItem::Kind::kUnregister;
        item.structure_id = st.id;
        c.sendq_hi.push_back(std::move(item));
        c.cv.notify_all();
      }
    }
  }

  // Sleep an interval under the lock, probe outside it. (A spurious wakeup
  // probes early, which is harmless — probing is idempotent.)
  void probe_loop() {
    for (;;) {
      {
        MutexLock lock(&mu_);
        if (stopping_) return;
        probe_cv_.wait_for(mu_, cfg_.probe_interval);
        if (stopping_) return;
      }
      probe_down_shards();
    }
  }

  std::vector<service::ShardEndpoint> endpoints_;
  ShardedBackendConfig cfg_;
  service::ConsistentHashRing ring_;
  // Backend-level series (routing, failover, 2D) — the storage behind
  // stats(). Per-instance, not the process-global registry, so two backends
  // in one process don't collide. Declared before the handles resolved in
  // it.
  obs::Registry metrics_;
  std::vector<obs::Counter*> routed_;  // kOk completions per shard
  obs::Counter* submitted_ = metrics_.counter("msx_backend_submitted_total");
  obs::Counter* completed_ = metrics_.counter("msx_backend_completed_total");
  obs::Counter* failover_resubmits_ =
      metrics_.counter("msx_backend_failover_resubmits_total");
  obs::Counter* overload_reroutes_ =
      metrics_.counter("msx_backend_overload_reroutes_total");
  obs::Counter* down_marks_ = metrics_.counter("msx_backend_down_marks_total");
  obs::Counter* probes_ = metrics_.counter("msx_backend_probes_total");
  obs::Counter* rejoins_ = metrics_.counter("msx_backend_rejoins_total");
  obs::Counter* dist2d_products_ =
      metrics_.counter("msx_backend_dist2d_products_total");
  obs::Counter* dist2d_panels_ =
      metrics_.counter("msx_backend_dist2d_panels_total");

  mutable Mutex mu_{LockRank::kClientBackend, "ShardedBackend::mu_"};
  std::vector<char> down_ MSX_GUARDED_BY(mu_);
  // The vector itself is fixed after the constructor; each Conn's contents
  // are guarded by mu_ (see Conn).
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Structure>> structures_
      MSX_GUARDED_BY(mu_);
  std::vector<Retired> retired_
      MSX_GUARDED_BY(mu_);  // prior conn threads awaiting join
  std::vector<double> ewma_nanos_ MSX_GUARDED_BY(mu_);
  std::uint64_t inflight_total_ MSX_GUARDED_BY(mu_) = 0;
  bool stopping_ MSX_GUARDED_BY(mu_) = false;
  CondVar drain_cv_;
  CondVar probe_cv_;
  std::atomic<std::uint64_t> next_rid_{1};
  std::atomic<std::uint64_t> next_structure_{1};
  std::thread prober_;
};

// Convenience: a client over a shard fleet.
template <class SR, class IT, class VT>
MaskedClient<SR, IT, VT> make_sharded_client(
    std::vector<service::ShardEndpoint> endpoints,
    ShardedBackendConfig cfg = {}) {
  return MaskedClient<SR, IT, VT>(std::make_shared<ShardedBackend<SR, IT, VT>>(
      std::move(endpoints), cfg));
}

}  // namespace msx::client
