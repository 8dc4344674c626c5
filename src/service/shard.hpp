// ServiceShard — one masked-SpGEMM server process (ISSUE 4 tentpole).
//
// A shard accepts framed requests over any Transport (loopback for tests
// and co-located deployments, Unix/TCP sockets across processes/hosts) and
// drains them through the concurrent runtime: every product submit becomes
// a BatchExecutor job, so a shard inherits the moldable small/wide policy,
// the structure-keyed PlanCache, and bounded-queue admission. Under
// AdmissionPolicy::kReject a flooded shard answers kOverloaded instead of
// queueing unboundedly, and the client spills the request over to the next
// shard on the ring.
//
// One thread per connection: it decodes and submits requests, so a
// connection can keep many requests in flight (the executor runs them
// concurrently). Each product's completion writes its own response from the
// executor worker, so responses leave in completion order and clients match
// them by the echoed request id; an interactive answer never waits behind an
// earlier batch result, and a job keeps its admission slot until its
// response is written. The reader writes immediate answers itself: errors,
// kOverloaded, and the Prometheus page a kMetricsRequest asks for (the
// client's health probe).
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"
#include "service/distributed.hpp"  // slice_rows (mask row windows)
#include "service/transport.hpp"
#include "service/wire.hpp"

namespace msx::service {

struct ShardConfig {
  std::string name = "shard";
  // Executor limits: pool size, plan-cache capacity/bytes, admission bounds.
  // Service deployments typically set max_pending_jobs (and kReject) so
  // overload turns into kOverloaded responses the client can reroute.
  BatchLimits limits;
};

namespace detail {

// Owns a shard's connections: each adopted stream plus the thread serving
// it. Finished connections (serve callback returned) are reaped — joined
// and freed, releasing the stream's fd — opportunistically on every adopt,
// so a long-running shard cycling through short-lived connections stays
// bounded. close() shuts every stream down (unblocking each reader and any
// completion blocked writing to it) and joins everything; streams adopted
// after close() are shut down on arrival so a late accept cannot outlive
// stop(). Non-template (shard.cpp).
class ConnectionSet {
 public:
  ConnectionSet() = default;
  ~ConnectionSet();
  ConnectionSet(const ConnectionSet&) = delete;
  ConnectionSet& operator=(const ConnectionSet&) = delete;

  // Takes ownership of the stream and runs `serve(*stream)` on a new
  // thread; both are reclaimed once serve returns.
  void adopt(std::unique_ptr<Stream> s, std::function<void(Stream&)> serve);
  // Auxiliary long-lived thread (a listener's accept loop); joined at
  // close().
  void add_thread(std::thread t);
  void close();

 private:
  struct Conn {
    std::unique_ptr<Stream> stream;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void reap_finished_locked() MSX_REQUIRES(mu_);

  Mutex mu_{LockRank::kShard, "ConnectionSet::mu_"};
  std::vector<std::unique_ptr<Conn>> conns_ MSX_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ MSX_GUARDED_BY(mu_);
  bool closed_ MSX_GUARDED_BY(mu_) = false;
};

}  // namespace detail

// Read view over a shard's msx_shard_* counters with its executor's job and
// plan-cache counts folded in; remote readers see the same series.
struct ServiceStats {
  std::uint64_t requests = 0;    // product requests received
  std::uint64_t registrations = 0;  // structures installed (session protocol)
  std::uint64_t updates = 0;     // structure deltas applied (wire v3)
  std::uint64_t stale = 0;       // kStaleStructure responses (version races)
  std::uint64_t responses = 0;   // responses sent (any status)
  std::uint64_t errors = 0;      // kBadRequest + kInternalError responses
  std::uint64_t overloaded = 0;  // kOverloaded responses (back-pressure)
  std::uint64_t bytes_in = 0;    // payload bytes received
  std::uint64_t bytes_out = 0;   // payload bytes sent
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_grows = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_instances = 0;
  std::uint64_t cache_bytes = 0;

  // Warm-plan rate over all product requests that reached the executor.
  double warm_hit_rate() const {
    const auto total = cache_hits + cache_misses + cache_grows;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

template <class SR, class IT, class VT>
class ServiceShard {
 public:
  using Executor = BatchExecutor<SR, IT, VT>;
  using Mat = CSRMatrix<IT, VT>;
  using output_matrix = typename Executor::output_matrix;

  explicit ServiceShard(ShardConfig cfg = {})
      : cfg_(std::move(cfg)), exec_(cfg_.limits) {
    exec_.metrics().gauge_fn("msx_shard_warm_hit_rate", "",
                             [this] { return stats().warm_hit_rate(); });
  }

  // Stops accepting, closes every connection, joins the serving threads and
  // drains the executor.
  ~ServiceShard() { stop(); }

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  // Adopts a connection and serves it on a background thread until the peer
  // closes (or the stream turns out corrupt); the connection's resources
  // are reclaimed after that.
  void attach(std::unique_ptr<Stream> stream) {
    conns_.adopt(std::move(stream), [this](Stream& s) { serve_stream(s); });
  }

  // Adopts a listener and accepts connections on a background thread.
  void serve(std::unique_ptr<Listener> listener) {
    Listener* raw = nullptr;
    {
      MutexLock lock(&listeners_mu_);
      listeners_.push_back(std::move(listener));
      raw = listeners_.back().get();
    }
    conns_.add_thread(std::thread([this, raw] {
      while (auto s = raw->accept()) attach(std::move(s));
    }));
  }

  // Serves one connection on the calling thread (deterministic tests).
  // Returns once every completion this connection started has run, so none
  // can write to `s` after it is freed.
  void serve_stream(Stream& s) {
    Connection conn(s);
    // Session protocol (wire v2): structures registered by this connection,
    // alive exactly as long as it is. Only the reader thread touches it.
    std::unordered_map<std::uint64_t, Registered> registry;

    FrameHeader header;
    std::vector<std::uint8_t> payload;
    try {
      while (recv_frame(s, header, payload)) {
        bytes_in_->inc(payload.size());
        const std::uint64_t rid = header.request_id;
        switch (header.type) {
          case MessageType::kRegisterRequest:
            // One-way: a malformed registration throws WireError below and
            // tears the connection down like any other malformed frame.
            handle_register(payload, registry);
            continue;
          case MessageType::kUnregisterRequest:
            registry.erase(decode_unregister(payload));
            continue;
          case MessageType::kSubmitRequest: {
            const auto error = handle_submit(payload, registry, conn, rid);
            if (!error.empty()) send(conn, MessageType::kResponse, rid, error);
            break;
          }
          case MessageType::kUpdateRequest:
            // One-way like register: FIFO frame ordering means a submit
            // behind this update sees the new version and matrix.
            handle_update(payload, registry);
            continue;
          case MessageType::kMetricsRequest:
            send(conn, MessageType::kMetricsResponse, rid,
                 encode_metrics_text(metrics_text()));
            break;
          default:
            send(conn, MessageType::kResponse, rid,
                 encode_error_response(
                     WireStatus::kBadRequest,
                     std::string("unexpected message type: ") +
                         to_string(header.type)));
            break;
        }
      }
    } catch (const WireVersionError& e) {
      // A peer speaking another protocol version: answer on its own request
      // id with an error naming both versions so it fails fast instead of
      // hanging on a silently dropped connection, then close — nothing else
      // it sends can be trusted to parse.
      send(conn, MessageType::kResponse, e.request_id(),
           encode_error_response(WireStatus::kBadRequest, e.what()));
    } catch (const WireError&) {
      // Malformed frame: the stream can no longer be trusted — drop it.
    } catch (const TransportError&) {
    }
    conn.wait_idle();
    s.shutdown();
  }

  // Close listeners first (accept loops end), then every connection, then
  // join. Idempotent.
  void stop() {
    {
      MutexLock lock(&listeners_mu_);
      for (auto& l : listeners_) l->close();
    }
    conns_.close();
  }

  // The wire counters with the executor's job and plan-cache counters
  // folded in.
  ServiceStats stats() const {
    ServiceStats out;
    out.requests = requests_->value();
    out.registrations = registrations_->value();
    out.updates = updates_->value();
    out.stale = stale_->value();
    out.responses = responses_->value();
    out.errors = errors_->value();
    out.overloaded = overloaded_->value();
    out.bytes_in = bytes_in_->value();
    out.bytes_out = bytes_out_->value();
    const BatchStats e = exec_.stats();
    out.jobs_submitted = e.submitted;
    out.jobs_completed = e.completed;
    out.cache_hits = e.cache.hits;
    out.cache_misses = e.cache.misses;
    out.cache_grows = e.cache.grows;
    out.cache_evictions = e.cache.evictions;
    out.cache_instances = e.cache.instances;
    out.cache_bytes = e.cache.bytes_held;
    return out;
  }

  Executor& executor() { return exec_; }
  const ShardConfig& config() const { return cfg_; }

  // The shard's metrics plane as Prometheus text: the executor's registry
  // (latency histograms, executor/plan-cache/shard counters, live gauges),
  // every sample labelled shard="<name>" so an in-process fleet scrapes
  // without collisions. Served over the wire by kMetricsRequest; also
  // directly callable for co-located deployments.
  std::string metrics_text() {
    return exec_.metrics().render("shard=\"" + cfg_.name + "\"");
  }

 private:
  // One connection's write side. The reader's immediate answers and every
  // product's completion write whole frames under write_mu, taken with no
  // other lock held. in_flight counts submitted products whose completion
  // has not finished; serve_stream waits for it to reach zero.
  struct Connection {
    explicit Connection(Stream& s) : stream(s) {}
    Stream& stream;
    Mutex write_mu{LockRank::kShard, "ServiceShard::Connection::write_mu"};
    Mutex mu{LockRank::kShard, "ServiceShard::Connection::mu"};
    CondVar idle;
    std::size_t in_flight MSX_GUARDED_BY(mu) = 0;

    void begin() {
      MutexLock lock(&mu);
      ++in_flight;
    }
    // Notifies under the lock: once the waiter sees zero it may destroy
    // this object, so nothing touches it after the lock is released.
    void end() {
      MutexLock lock(&mu);
      if (--in_flight == 0) idle.notify_all();
    }
    void wait_idle() {
      MutexLock lock(&mu);
      while (in_flight != 0) idle.wait(mu);
    }
  };

  // What a product's completion needs to answer it.
  struct Reply {
    Connection* conn = nullptr;
    std::uint64_t rid = 0;
    // Frame receipt time: receipt→completion is the wire v4 exec_nanos
    // response field, the cost-model feedback clients fold into their
    // per-shard EWMA. Includes queue wait on purpose — a loaded shard should
    // look expensive to the 2D placer.
    std::uint64_t t0 = 0;
    // v5: trace context from a kSubTraced submit. span_id is minted at
    // receipt so the executor's spans nest under the shard.request span the
    // completion records.
    obs::TraceId trace;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span = 0;
  };

  // A structure installed by kRegisterRequest: shared operands the executor
  // reuses across every submit that references them (one PlanCache key per
  // recurring product shape, zero per-request operand copies).
  struct Registered {
    std::shared_ptr<const Mat> b;
    std::shared_ptr<const Mat> m;  // null unless registered with a mask
    std::uint64_t version = 1;     // bumped by kUpdateRequest
    // Set by the most recent update: lets the executor's plan cache migrate
    // the superseded structure's warm plans forward via apply_delta.
    std::shared_ptr<const PlanLineage<IT, VT>> lineage;
    // Row windows of the registered mask (wire v4 kSubMaskRows), keyed
    // (r0 << 32) | r1. A 2D client resubmits the same row panels against a
    // registered panel structure, so each window is sliced once per version
    // (cleared on update). Reader-thread-only like the registry itself.
    std::unordered_map<std::uint64_t, std::shared_ptr<const Mat>> mask_slices;

    std::shared_ptr<const Mat> mask_slice(std::uint64_t r0, std::uint64_t r1) {
      const bool cacheable = r1 < (1ull << 32);
      const std::uint64_t key = (r0 << 32) | r1;
      if (cacheable) {
        const auto hit = mask_slices.find(key);
        if (hit != mask_slices.end()) return hit->second;
      }
      auto s = std::make_shared<const Mat>(
          slice_rows(*m, static_cast<std::int64_t>(r0),
                     static_cast<std::int64_t>(r1)));
      if (cacheable) mask_slices.emplace(key, s);
      return s;
    }
  };

  // Installs (or replaces) a registered structure. Decode failures propagate
  // as WireError to the reader loop, which drops the connection.
  void handle_register(std::span<const std::uint8_t> payload,
                       std::unordered_map<std::uint64_t, Registered>& registry) {
    auto reg = decode_register<IT, VT>(payload);
    Registered rec;
    rec.b = std::make_shared<const Mat>(std::move(reg.b));
    if (reg.has_mask) {
      rec.m = reg.mask_is_b
                  ? rec.b
                  : std::make_shared<const Mat>(std::move(reg.m_storage));
    }
    rec.version = reg.version;
    registry[reg.structure_id] = std::move(rec);
    registrations_->inc();
  }

  // Applies a structure update: the delta is materialized server-side (the
  // patched B never crosses the wire), the registration flips to the new
  // matrix and version atomically w.r.t. this connection's FIFO, and the
  // lineage is kept so warm plans migrate instead of rebuilding. One-way; a
  // bad delta (unknown id, out-of-range edge) is a protocol violation that
  // tears the connection down like any malformed frame.
  void handle_update(std::span<const std::uint8_t> payload,
                     std::unordered_map<std::uint64_t, Registered>& registry) {
    auto upd = decode_update<IT, VT>(payload);
    const auto it = registry.find(upd.structure_id);
    if (it == registry.end()) {
      throw WireError("wire: update for unknown structure id " +
                      std::to_string(upd.structure_id));
    }
    obs::ScopedSpan span("delta.apply");
    Registered& reg = it->second;
    std::shared_ptr<const Mat> old_b = reg.b;
    std::shared_ptr<const Mat> new_b;
    try {
      new_b = std::make_shared<const Mat>(apply_edge_delta(*old_b, upd.delta));
    } catch (const std::invalid_argument& e) {
      throw WireError(std::string("wire: invalid update delta: ") + e.what());
    }
    auto lineage = std::make_shared<PlanLineage<IT, VT>>();
    lineage->old_b = old_b;
    // Touched rows computed once per delta; every warm plan this lineage
    // migrates (there can be many instances per key) reuses it.
    lineage->touched = std::make_shared<const std::vector<IT>>(
        delta_touched_rows(upd.delta));
    lineage->delta =
        std::make_shared<const EdgeDelta<IT, VT>>(std::move(upd.delta));
    if (reg.m == old_b) reg.m = new_b;  // a self-masked structure tracks B
    reg.b = std::move(new_b);
    reg.version = upd.new_version;
    reg.lineage = std::move(lineage);
    reg.mask_slices.clear();  // windows of the superseded mask
    updates_->inc();
  }

  // Decodes and submits one session product: operands resolve against the
  // connection's registry, so only what the client actually shipped (a small
  // A and/or mask, often nothing but flags) is copied here. Returns the
  // error payload of a request answered right away; empty once the job is
  // submitted, and then its completion answers.
  std::vector<std::uint8_t> handle_submit(
      std::span<const std::uint8_t> payload,
      std::unordered_map<std::uint64_t, Registered>& registry,
      Connection& conn, std::uint64_t rid) {
    Reply reply{.conn = &conn, .rid = rid, .t0 = obs::now_ns()};
    requests_->inc();
    try {
      auto sub = decode_submit<IT, VT>(payload);
      const auto it = registry.find(sub.structure_id);
      if (it == registry.end()) {
        return encode_error_response(
            WireStatus::kBadRequest,
            "unknown structure id " + std::to_string(sub.structure_id));
      }
      Registered& reg = it->second;
      if (sub.version != reg.version) {
        // Typed and retryable: the client raced an update (or kept an old
        // handle). Never run against the wrong matrix generation.
        return encode_error_response(
            WireStatus::kStaleStructure,
            "structure " + std::to_string(sub.structure_id) +
                " submitted at version " + std::to_string(sub.version) +
                " but is at version " + std::to_string(reg.version));
      }
      auto b = reg.b;
      auto a = sub.a_is_b
                   ? b
                   : std::make_shared<const Mat>(std::move(sub.a_storage));
      std::shared_ptr<const Mat> m;
      if (sub.m_is_a) {
        m = a;
      } else if (sub.m_is_b) {
        m = b;
      } else if (sub.m_registered) {
        if (reg.m == nullptr) {
          return encode_error_response(WireStatus::kBadRequest,
                                       "structure registered without a mask");
        }
        if (sub.mask_rows) {
          // 2D panel task: the client's A is one row panel; the matching
          // rows of the registered (column-sliced) mask complete the 2D
          // slice server-side, so the full mask never re-crosses the wire.
          if (sub.mask_r1 > static_cast<std::uint64_t>(reg.m->nrows())) {
            return encode_error_response(
                WireStatus::kBadRequest,
                "mask row window [" + std::to_string(sub.mask_r0) + ", " +
                    std::to_string(sub.mask_r1) + ") exceeds the " +
                    std::to_string(reg.m->nrows()) + "-row registered mask");
          }
          m = reg.mask_slice(sub.mask_r0, sub.mask_r1);
        } else {
          m = reg.m;
        }
      } else {
        m = std::make_shared<const Mat>(std::move(sub.m_storage));
      }
      JobOptions job;
      job.priority = sub.priority;
      if (sub.traced && obs::trace_enabled()) {
        reply.trace = obs::TraceId{sub.trace_hi, sub.trace_lo};
        reply.parent_span = sub.trace_parent;
        reply.span_id = obs::next_span_id();
        // The job's spans (exec.queue/exec.run, phase.*) parent under this
        // shard's request span and carry its name as their component.
        job.trace = {reply.trace, reply.span_id, cfg_.name.c_str()};
      }
      conn.begin();
      try {
        exec_.submit_shared(std::move(a), std::move(b), std::move(m),
                            sub.opts, std::move(job), reg.lineage,
                            [this, reply](typename Executor::JobResult r) {
                              respond(reply, r);
                            });
      } catch (...) {
        conn.end();  // not enqueued: no completion will run
        throw;
      }
      return {};
    } catch (...) {
      return error_payload(std::current_exception());
    }
  }

  // A product's completion, on the executor worker: times, counts and
  // writes the response, then releases the connection.
  void respond(const Reply& reply, const typename Executor::JobResult& r) {
    const std::uint64_t nanos = obs::now_ns() - reply.t0;
    h_request_->observe_ns(nanos);
    if (obs::trace_enabled() && reply.trace.valid()) {
      // Receipt-to-completion on this shard; the executor's exec.queue /
      // exec.run (and phase.*) spans already nest under span_id.
      obs::record_span("shard.request", reply.trace, reply.span_id,
                       reply.parent_span, reply.t0, nanos, cfg_.name.c_str());
    }
    if (r.error) {
      send(*reply.conn, MessageType::kResponse, reply.rid,
           error_payload(r.error));
    } else {
      // A gather frame referencing the matrix in place (no payload copy).
      GatherPayload g;
      encode_response_parts(g, r.matrix, nanos, r.queue_ns, r.run_ns);
      send(*reply.conn, MessageType::kResponse, reply.rid, WireStatus::kOk, g);
    }
    reply.conn->end();
  }

  // The one exception -> error payload mapping, for failures at submit and
  // failures inside the job alike.
  static std::vector<std::uint8_t> error_payload(std::exception_ptr error) {
    try {
      std::rethrow_exception(error);
    } catch (const BatchRejected& e) {
      return encode_error_response(WireStatus::kOverloaded, e.what());
    } catch (const WireError& e) {
      return encode_error_response(WireStatus::kBadRequest, e.what());
    } catch (const std::invalid_argument& e) {
      return encode_error_response(WireStatus::kBadRequest, e.what());
    } catch (const std::exception& e) {
      return encode_error_response(WireStatus::kInternalError, e.what());
    } catch (...) {
      return encode_error_response(WireStatus::kInternalError,
                                   "unknown exception");
    }
  }

  // Counts one response frame and writes it under the connection's write
  // lock. A vanished peer loses the frame; the reader sees the failure on
  // its next read.
  void send(Connection& conn, MessageType type, std::uint64_t rid,
            WireStatus status, GatherPayload& g) {
    count_out(type, status, g.total_bytes());
    try {
      MutexLock lock(&conn.write_mu);
      send_frame_parts(conn.stream, type, rid, g);
    } catch (const TransportError&) {
    }
  }

  // An answer encoded up front: an error, or the metrics page.
  void send(Connection& conn, MessageType type, std::uint64_t rid,
            std::span<const std::uint8_t> payload) {
    GatherPayload g;
    g.add_span(payload);
    send(conn, type, rid, response_status(type, payload), g);
  }

  // The status word that leads a pre-encoded kResponse payload.
  static WireStatus response_status(MessageType type,
                                    std::span<const std::uint8_t> payload) {
    if (type != MessageType::kResponse || payload.size() < 4) {
      return WireStatus::kOk;
    }
    std::uint32_t raw;
    std::memcpy(&raw, payload.data(), 4);
    return static_cast<WireStatus>(raw);
  }

  void count_out(MessageType type, WireStatus status,
                 std::size_t payload_bytes) {
    bytes_out_->inc(payload_bytes);
    if (type != MessageType::kResponse) return;
    responses_->inc();
    if (status == WireStatus::kOverloaded) {
      overloaded_->inc();
    } else if (status == WireStatus::kStaleStructure) {
      // Expected under churn (update raced a submit), not a server fault.
      stale_->inc();
    } else if (status != WireStatus::kOk) {
      errors_->inc();
    }
  }

  ShardConfig cfg_;
  Executor exec_;
  // Receipt-to-result latency per product request served by this shard.
  obs::Histogram* h_request_ =
      exec_.metrics().histogram("msx_shard_request_seconds");
  // The wire counters, on the executor's registry.
  obs::Counter* requests_ = exec_.metrics().counter("msx_shard_requests_total");
  obs::Counter* responses_ =
      exec_.metrics().counter("msx_shard_responses_total");
  obs::Counter* errors_ = exec_.metrics().counter("msx_shard_errors_total");
  obs::Counter* overloaded_ =
      exec_.metrics().counter("msx_shard_overloaded_total");
  obs::Counter* stale_ = exec_.metrics().counter("msx_shard_stale_total");
  obs::Counter* registrations_ =
      exec_.metrics().counter("msx_shard_registrations_total");
  obs::Counter* updates_ = exec_.metrics().counter("msx_shard_updates_total");
  obs::Counter* bytes_in_ = exec_.metrics().counter("msx_shard_bytes_in_total");
  obs::Counter* bytes_out_ =
      exec_.metrics().counter("msx_shard_bytes_out_total");
  detail::ConnectionSet conns_;
  Mutex listeners_mu_{LockRank::kShard, "ServiceShard::listeners_mu_"};
  std::vector<std::unique_ptr<Listener>> listeners_
      MSX_GUARDED_BY(listeners_mu_);
};

}  // namespace msx::service
